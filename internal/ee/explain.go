package ee

import (
	"fmt"
	"strings"
)

// Explain renders the physical plan of a prepared statement: access paths
// (or the count access), join order, grouping, ordering, and DML targets.
// The format is stable enough for tests to assert on access-path choices.
// parts is the number of partitions a read spans: past one, every access
// of a SELECT (and of an INSERT's source) also names what it reads over the
// cut — every partition, the key's owner, or partition 0 (accessRows).
func (p *Prepared) Explain(parts int) string {
	var b strings.Builder
	switch {
	case p.sel != nil:
		explainSelect(&b, p.sel, 0, parts)
	case p.ins != nil:
		fmt.Fprintf(&b, "INSERT into %s", p.ins.relName)
		if p.ins.query != nil {
			b.WriteString(" from query:\n")
			explainSelect(&b, p.ins.query, 1, parts)
		} else {
			fmt.Fprintf(&b, " (%d literal rows)\n", len(p.ins.rows))
		}
	case p.upd != nil:
		fmt.Fprintf(&b, "UPDATE %s (%d assignments)\n", p.upd.relName, len(p.upd.sets))
		writeIndent(&b, 1)
		b.WriteString("scan: " + describeAccess(&p.upd.access) + "\n")
		explainSubs(&b, p.upd.subs, 1, 1)
	case p.del != nil:
		fmt.Fprintf(&b, "DELETE from %s\n", p.del.relName)
		writeIndent(&b, 1)
		b.WriteString("scan: " + describeAccess(&p.del.access) + "\n")
		explainSubs(&b, p.del.subs, 1, 1)
	default:
		b.WriteString("(empty statement)\n")
	}
	return b.String()
}

func explainSelect(b *strings.Builder, plan *selectPlan, depth, parts int) {
	writeIndent(b, depth)
	b.WriteString("SELECT")
	if plan.distinct {
		b.WriteString(" DISTINCT")
	}
	fmt.Fprintf(b, " (%d output columns)\n", len(plan.projs))
	writeIndent(b, depth+1)
	if plan.count {
		b.WriteString("count: " + describeCount(&plan.src.base) + reach(&plan.src.base, parts) + "\n")
	} else {
		b.WriteString("scan: " + describeAccess(&plan.src.base) + reach(&plan.src.base, parts) + "\n")
	}
	for _, js := range plan.src.joins {
		writeIndent(b, depth+1)
		kind := "join"
		if js.left {
			kind = "left join"
		}
		fmt.Fprintf(b, "%s: %s%s\n", kind, describeAccess(&js.access), reach(&js.access, parts))
	}
	if plan.where != nil {
		writeIndent(b, depth+1)
		b.WriteString("filter: residual predicate\n")
	}
	if plan.grouped {
		writeIndent(b, depth+1)
		fmt.Fprintf(b, "aggregate: %d keys, %d aggregates", len(plan.groupKeys), len(plan.aggs))
		if plan.having != nil {
			b.WriteString(", having")
		}
		b.WriteString("\n")
	}
	if len(plan.orderBy) > 0 {
		writeIndent(b, depth+1)
		fmt.Fprintf(b, "sort: %d keys\n", len(plan.orderBy))
	}
	if plan.limit != nil || plan.offset != nil {
		writeIndent(b, depth+1)
		b.WriteString("limit/offset\n")
	}
	explainSubs(b, plan.subs, depth+1, parts)
}

func explainSubs(b *strings.Builder, subs []*selectPlan, depth, parts int) {
	for i, sub := range subs {
		writeIndent(b, depth)
		fmt.Fprintf(b, "subquery %d (materialized once):\n", i)
		explainSelect(b, sub, depth+1, parts)
	}
}

// reach names the partitions of a cut of parts that an access reads, or
// nothing on one partition.
func reach(a *tableAccess, parts int) string {
	switch {
	case parts < 2 || a.transient:
		return ""
	case !a.spread:
		return ", reads partition 0"
	case a.partKey != nil:
		return ", reads the key's owner"
	default:
		return fmt.Sprintf(", reads every partition (%d)", parts)
	}
}

func describeAccess(a *tableAccess) string {
	if a.transient {
		return fmt.Sprintf("%s (transient batch)", a.relName)
	}
	switch {
	case a.fromSub:
		return fmt.Sprintf("%s via index %s (probe from subquery %d)", a.relName, a.index.Name(), a.subSlot)
	case a.index != nil && a.eqKey != nil:
		return fmt.Sprintf("%s via index %s (equality probe)", a.relName, a.index.Name())
	case a.index != nil:
		bounds := ""
		if a.lo != nil && a.hi != nil {
			bounds = "bounded range"
		} else if a.lo != nil {
			bounds = "lower-bounded range"
		} else {
			bounds = "upper-bounded range"
		}
		return fmt.Sprintf("%s via index %s (%s)", a.relName, a.index.Name(), bounds)
	case a.scanWhy != "":
		return fmt.Sprintf("%s (full scan), not driven from its IN-subquery: %s", a.relName, a.scanWhy)
	default:
		return fmt.Sprintf("%s (full scan)", a.relName)
	}
}

// describeCount names a count access's relation: counted, not scanned.
func describeCount(a *tableAccess) string {
	if a.transient {
		return fmt.Sprintf("%s (transient batch, counted by its length)", a.relName)
	}
	return fmt.Sprintf("%s (counted by storage, no row read)", a.relName)
}

func writeIndent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

// ExplainSQL prepares a statement and returns its plan description as a
// read over parts partitions runs it (Prepared.Explain). Text that is the
// body of a registered EE trigger is explained as compiled for that
// trigger: it reads the firing's transients, which only bind there, the
// compiled plan is the one that runs, and it runs on one partition.
func (e *Engine) ExplainSQL(text string, parts int) (string, error) {
	for _, trs := range e.triggers {
		for _, tr := range trs {
			for _, p := range tr.Stmts {
				if p.Text == text {
					return p.Explain(1), nil
				}
			}
		}
	}
	p, err := e.Prepare(text, nil)
	if err != nil {
		return "", err
	}
	return p.Explain(parts), nil
}
