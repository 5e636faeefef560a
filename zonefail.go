package meshlayer

import (
	"fmt"
	"time"

	"meshlayer/internal/app"
	"meshlayer/internal/chaos"
)

// ---------- E17: zone-aware failover & graceful degradation ----------

// ZoneFailZones is the failure-domain count of the E17 topology: the
// Fig. 3 application replicated once per zone, joined at the spine.
const ZoneFailZones = 3

// ZoneFailRow is one defense configuration measured under the
// correlated-failure suite.
type ZoneFailRow struct {
	Config       string
	LSP50, LSP99 time.Duration
	LIP99        time.Duration
	// Avail is served/total over the whole measured window; OutageAvail
	// the same over the zone-a outage window only. Degraded-but-served
	// responses count as served (that is the point of degradation).
	Avail, OutageAvail float64
	// DegradedFrac is the fraction of served external responses that
	// carried the x-mesh-degraded provenance stamp.
	DegradedFrac float64
	Retries      uint64
	CrossZone    uint64
	Fallbacks    uint64
	Faults       bool
}

// zoneFailSuite is the scripted correlated-failure sequence E17 replays
// against every rung: the gateway's own zone goes dark for half the
// window (the 10 s outage at the default 20 s measure), a remote zone
// turns correlated-slow, another zone partitions at the spine, and
// finally every ratings replica crashes at once — the dependency-wide
// failure only graceful degradation survives. Returns the scenario and
// the outage window [start, end) for availability scoring.
func zoneFailSuite(warmup, measure time.Duration) (chaos.Scenario, time.Duration, time.Duration) {
	w, m := warmup, measure
	outageAt, outageFor := w+m/10, m/2
	var ratingsCrash []chaos.Event
	for i := 0; i < ZoneFailZones; i++ {
		ratingsCrash = append(ratingsCrash, chaos.Event{
			At: w + 88*m/100, Duration: 8 * m / 100,
			Fault: chaos.PodCrash{Pod: "ratings-" + string(rune('a'+i))},
		})
	}
	return chaos.Scenario{
		Name: "e17-suite",
		Events: append([]chaos.Event{
			{At: outageAt, Duration: outageFor, Fault: chaos.ZoneOutage{
				Zone: "zone-a", Except: []string{"gateway"},
			}},
			{At: w + 65*m/100, Duration: m / 10, Fault: chaos.SlowZone{Zone: "zone-b", Factor: 10}},
			{At: w + 78*m/100, Duration: 8 * m / 100, Fault: chaos.ZonePartition{Zone: "zone-c"}},
		}, ratingsCrash...),
	}, outageAt, outageAt + outageFor
}

// RunZoneFail measures the three-zone e-library under the correlated
// failure suite across the defense ladder, plus a fault-free baseline.
func RunZoneFail(seed int64, warmup, measure time.Duration) []ZoneFailRow {
	warmup, measure = windowDefaults(warmup, measure, 20*time.Second)
	type config struct {
		name   string
		rung   int
		faults bool
	}
	return sweep([]config{
		{"fault-free baseline", 3, false},
		{"no defenses (zone-blind)", 0, true},
		{"zone-aware LB (strict locality)", 1, true},
		{"+ locality failover + self-healing", 2, true},
		{"+ graceful degradation", 3, true},
	}, func(c config) ZoneFailRow {
		return runZoneFailOnce(c.name, c.rung, c.faults, seed, warmup, measure)
	})
}

func runZoneFailOnce(name string, rung int, withFaults bool, seed int64, warmup, measure time.Duration) ZoneFailRow {
	appCfg := app.DefaultELibraryConfig()
	appCfg.Zones = ZoneFailZones
	l := newLadderRun(appCfg, zoneDefenses(rung), seed, warmup, measure)
	suite, outageFrom, outageTo := zoneFailSuite(warmup, measure)
	if withFaults {
		l.inject(suite)
	}
	r := l.run()
	return ZoneFailRow{
		Config:       name,
		LSP50:        r.LS.P50,
		LSP99:        r.LS.P99,
		LIP99:        r.LI.P99,
		Avail:        l.avail(warmup, warmup+measure),
		OutageAvail:  l.avail(outageFrom, outageTo),
		DegradedFrac: l.degradedFrac(r),
		Retries:      l.counter("mesh_retries_total"),
		CrossZone:    l.counter("mesh_lb_cross_zone_total"),
		Fallbacks:    l.counter("mesh_fallback_served_total"),
		Faults:       withFaults,
	}
}

// FormatZoneFail renders the E17 table.
func FormatZoneFail(rows []ZoneFailRow) string {
	t := newTable("configuration", "LS p50", "LS p99", "LI p99",
		"avail", "outage avail", "degraded", "retries", "x-zone", "fallbacks")
	for _, r := range rows {
		outage := "-"
		if r.Faults {
			outage = fmt.Sprintf("%.2f%%", 100*r.OutageAvail)
		}
		t.row(r.Config, ms(r.LSP50), ms(r.LSP99), ms(r.LIP99),
			fmt.Sprintf("%.2f%%", 100*r.Avail), outage,
			fmt.Sprintf("%.2f%%", 100*r.DegradedFrac),
			fmt.Sprint(r.Retries), fmt.Sprint(r.CrossZone), fmt.Sprint(r.Fallbacks))
	}
	return "E17 — correlated zone failures (outage, slow-zone, partition, dependency loss) vs zone-aware failover & degradation (3 zones, 30 RPS mixed)\n" + t.String()
}
