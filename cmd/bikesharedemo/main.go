// Command bikesharedemo runs the §3.2 demonstration: the BikeShare mixed
// workload — OLTP checkouts/returns, the 1 Hz GPS stream with real-time
// ride statistics and stolen-bike alerts, and the transactional discount
// workflow — then renders the rider view (Fig. 4) and the company map
// (Fig. 5) as text.
//
//	bikesharedemo                    # run the simulation, print both views
//	bikesharedemo -bike 7            # Fig. 4 for one bike
//	bikesharedemo -map               # Fig. 5 only
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps/bikeshare"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/workload"
)

func main() {
	var (
		stations = flag.Int("stations", 12, "number of stations")
		bikes    = flag.Int("bikes-per-station", 5, "bikes seeded per station")
		riders   = flag.Int("riders", 30, "number of riders")
		ticks    = flag.Int("ticks", 120, "seconds of GPS simulation")
		seed     = flag.Int64("seed", 7, "workload seed")
		oneBike  = flag.Int64("bike", 0, "print the Fig. 4 view for this bike only")
		mapOnly  = flag.Bool("map", false, "print only the Fig. 5 station map")
	)
	flag.Parse()

	st := core.Open(core.Config{})
	if err := bikeshare.Setup(st, *stations, *bikes, *riders); err != nil {
		fail(err)
	}
	if err := st.Start(); err != nil {
		fail(err)
	}
	defer func() {
		if err := st.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "bikesharedemo: stop: %v\n", err)
		}
	}()

	// Mixed workload: OLTP churn interleaved with the GPS stream.
	gcfg := workload.DefaultBikeConfig(*seed, *stations**bikes, *ticks)
	gcfg.StolenPct = 5
	points := workload.GPS(gcfg)
	ts := int64(1_700_000_000_000_000)
	pi := 0
	perTick := len(points) / *ticks
	for tick := 0; tick < *ticks; tick++ {
		ts += 1_000_000
		if tick%10 == 0 {
			rider := int64(1 + tick/10%*riders)
			stn := int64(1 + tick%*stations)
			if tick%20 == 0 {
				_, _ = st.Call("bs_checkout", types.NewInt(rider), types.NewInt(stn), types.NewInt(ts))
			} else {
				_, _ = st.Call("bs_return", types.NewInt(rider), types.NewInt(stn), types.NewInt(ts))
			}
		}
		end := pi + perTick
		if end > len(points) {
			end = len(points)
		}
		if pi < end {
			if err := bikeshare.IngestGPS(st, points[pi:end]); err != nil {
				fail(err)
			}
			pi = end
		}
		if tick%30 == 0 {
			_, _ = st.Call("bs_expire_discounts", types.NewInt(ts))
		}
	}
	st.FlushBatches()
	st.Drain()
	if err := bikeshare.Invariants(st); err != nil {
		fail(err)
	}

	if *oneBike > 0 {
		printBikeView(st, *oneBike)
		return
	}
	if !*mapOnly {
		printSummary(st)
		printBikeView(st, 1)
	}
	printMap(st)
}

// printBikeView renders Fig. 4: streaming data of a single bike.
func printBikeView(st *core.Store, bike int64) {
	res, err := st.Query(`SELECT dist_m, max_speed, points, last_lat, last_lon
		FROM ride_stats WHERE bike = ?`, types.NewInt(bike))
	if err != nil {
		fail(err)
	}
	fmt.Printf("\n=== bike %d (Fig. 4 view) ===\n", bike)
	if len(res.Rows) == 0 {
		fmt.Println("  no telemetry")
		return
	}
	r := res.Rows[0]
	dist := r[0].Float()
	maxS := r[1].Float()
	pts := r[2].Int()
	fmt.Printf("  distance traveled : %8.0f m\n", dist)
	fmt.Printf("  max speed         : %8.1f m/s (%.1f mph)\n", maxS, maxS*2.23694)
	if pts > 1 {
		fmt.Printf("  avg speed         : %8.1f m/s over %d reports\n", dist/float64(pts-1), pts)
	}
	fmt.Printf("  last position     : (%.5f, %.5f)\n", r[3].Float(), r[4].Float())
	al, _ := st.Query("SELECT ts, speed_ms FROM alerts WHERE bike = ? ORDER BY ts", types.NewInt(bike))
	for _, a := range al.Rows {
		fmt.Printf("  ALERT: stolen-bike speed %.1f m/s at t=%d\n", a[1].Float(), a[0].Int())
	}
}

// printMap renders Fig. 5: stations, availability, and active discounts.
func printMap(st *core.Store) {
	res, err := st.Query(`SELECT s.id, s.name, s.bikes_avail, s.docks FROM stations s ORDER BY s.id`)
	if err != nil {
		fail(err)
	}
	disc, err := st.Query(`SELECT station, state, pct FROM discounts`)
	if err != nil {
		fail(err)
	}
	discounts := map[int64]string{}
	for _, d := range disc.Rows {
		discounts[d[0].Int()] = fmt.Sprintf("%s %d%%", d[1].Str(), d[2].Int())
	}
	fmt.Println("\n=== station map (Fig. 5 view) ===")
	for _, r := range res.Rows {
		id, name, avail, docks := r[0].Int(), r[1].Str(), r[2].Int(), r[3].Int()
		bar := strings.Repeat("#", int(avail)) + strings.Repeat(".", int(docks-avail))
		tag := ""
		if d, ok := discounts[id]; ok {
			tag = "  [discount " + d + "]"
		}
		fmt.Printf("  %-12s |%s| %d/%d%s\n", name, bar, avail, docks, tag)
	}
}

func printSummary(st *core.Store) {
	m := st.Metrics().Snapshot()
	rides, _ := st.Query("SELECT COUNT(*), SUM(cost_cents) FROM rides WHERE active = 0")
	alerts, _ := st.Query("SELECT COUNT(*) FROM alerts")
	fmt.Println("=== simulation summary ===")
	fmt.Printf("  txns committed=%d aborted=%d | tuples ingested=%d | window slides=%d\n",
		m[metrics.TxnCommitted], m[metrics.TxnAborted], m[metrics.TuplesIngested], m[metrics.WindowSlides])
	if len(rides.Rows) > 0 && !rides.Rows[0][1].IsNull() {
		fmt.Printf("  completed rides=%d, revenue=%d cents\n",
			rides.Rows[0][0].Int(), rides.Rows[0][1].Int())
	}
	fmt.Printf("  stolen-bike alerts=%d\n", alerts.Rows[0][0].Int())
	if text, err := st.ExplainDataflow("bikeshare"); err == nil {
		fmt.Print(text)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bikesharedemo:", err)
	os.Exit(1)
}
