// Monitoring demonstrates continuous fairness measurement of a deployed
// decision system — the paper's "critiquing deployed systems" use case —
// on the sharded concurrent streaming engine: batched ingest from
// parallel workers, an exponentially-decayed threshold watch that
// catches a silent regression, a sliding-window monitor tracking the
// same stream at a fixed horizon, and a full audit report snapshotted
// from the live monitor through the public fairness.Monitor front door.
// The closing Monitor.Audit(ctx) turns the decayed table into the same
// versioned report cmd/dfserve serves from its monitor registry.
//
//	go run ./examples/monitoring
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"
	"sync"

	fairness "repro"
	"repro/internal/rng"
)

func main() {
	space := fairness.MustSpace(
		fairness.Attr{Name: "gender", Values: []string{"M", "F"}},
		fairness.Attr{Name: "race", Values: []string{"A", "B"}},
	)
	outcomes := []string{"deny", "approve"}
	monitor, err := fairness.NewMonitor(space, outcomes, 2000, 1)
	if err != nil {
		log.Fatal(err)
	}
	// The watch arms two independent checks: the paper's ε against 1.0,
	// and the Ghosh et al. worst-case pairwise ratio (the "80% rule"
	// generalized to every intersectional pair) against 0.8 — a metric
	// where LOWER is worse, so the breach direction comes from the
	// metric, not a hard-coded comparison.
	worstRatio, err := fairness.MetricByKey("worst_ratio")
	if err != nil {
		log.Fatal(err)
	}
	watch, err := fairness.NewWatch(monitor, 1.0, 1000,
		fairness.MetricThreshold{Metric: worstRatio, Threshold: 0.8})
	if err != nil {
		log.Fatal(err)
	}
	// A second view of the same stream: a sliding window over the last
	// 4000 decisions, evicted 500 at a time. Window counts are integral,
	// so its Audit snapshots even take the bootstrap.
	windowed, err := fairness.NewSlidingMonitor(space, outcomes, 4000, 8, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Approval rates per intersection: the fair phase, then a regression
	// where (F, B) applicants are quietly throttled.
	fairRates := []float64{0.52, 0.50, 0.49, 0.51}
	brokenRates := []float64{0.52, 0.50, 0.49, 0.17}

	makeBatch := func(r *rng.RNG, rates []float64, n int) (groups, ys []int) {
		groups = make([]int, n)
		ys = make([]int, n)
		for i := range groups {
			groups[i] = r.Intn(space.Size())
			if r.Float64() < rates[groups[i]] {
				ys[i] = 1
			}
		}
		return groups, ys
	}

	// Phase 1: the fair model serves 15,000 decisions from four parallel
	// ingest workers — the monitor is goroutine-safe and sharded, so the
	// workers don't serialize on one lock.
	fmt.Println("phase 1: fair model serving 15,000 decisions from 4 concurrent workers")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(2024 + w))
			for i := 0; i < 75; i++ {
				groups, ys := makeBatch(r, fairRates, 50)
				if err := monitor.ObserveBatch(groups, ys); err != nil {
					log.Fatal(err)
				}
				if err := windowed.ObserveBatch(groups, ys); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	eps, err := monitor.Epsilon()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  running eps = %.3f (threshold 1.0) over %d decisions — healthy\n\n",
		eps.Epsilon, monitor.Seen())

	// Phase 2: the regressed model deploys. One stream of batches feeds
	// the decayed watch (alerting) and the sliding window (fixed horizon).
	fmt.Println("phase 2: regressed model deployed")
	r := rng.New(77)
	for i := 0; i < 1000; i++ {
		groups, ys := makeBatch(r, brokenRates, 50)
		if err := windowed.ObserveBatch(groups, ys); err != nil {
			log.Fatal(err)
		}
		alert, _, err := watch.ObserveBatchChecked(groups, ys)
		if err != nil {
			log.Fatal(err)
		}
		if alert == nil {
			continue
		}
		// Alert.Metric names the check that tripped: empty for the ε
		// threshold, a registry key for a metric threshold (Epsilon then
		// holds that metric's value). The direction-aware worst_ratio
		// check fires first here: the ratio sinks below 0.8 while the
		// long fair history still holds the decayed ε under 1.0. The
		// value prints in its shortest exact form: rounded to a few
		// digits, a ratio just under its limit would read as equal to it.
		value := strconv.FormatFloat(alert.Epsilon, 'g', -1, 64)
		if alert.Metric != "" {
			fmt.Printf("  ALERT after %d post-deploy decisions: %s = %s breached %.1f\n",
				(i+1)*50, alert.Metric, value, alert.Threshold)
		} else {
			fmt.Printf("  ALERT after %d post-deploy decisions: eps = %s > %.1f\n",
				(i+1)*50, value, alert.Threshold)
		}
		fmt.Printf("  witness: %q favors %s over %s\n",
			outcomes[alert.Witness.Outcome],
			space.Label(alert.Witness.GroupHi),
			space.Label(alert.Witness.GroupLo))
		wEps, err := windowed.Epsilon()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sliding-window view (last ~%0.f decisions): eps = %.3f\n",
			windowed.EffectiveCount(), wEps.Epsilon)
		fmt.Println("\nreading: the decayed estimator weights recent decisions, so the")
		fmt.Println("regression surfaces in thousands of decisions instead of being")
		fmt.Println("diluted by the long fair history a batch estimate would average over;")
		fmt.Println("the sliding window gives the same signal at a hard horizon.")

		// One straggler arrives by attribute values instead of indices.
		if err := monitor.ObserveValues([]string{"F", "B"}, "deny"); err != nil {
			log.Fatal(err)
		}

		// Snapshot the live monitor into a full audit report — the same
		// versioned JSON a watchdog would pull from dfserve's
		// GET /v1/monitors/{id}/report.
		// WithMetrics adds per-metric sections — value, witness, subset
		// ladder and the same posterior uncertainty — next to ε.
		fmt.Println("\nsnapshot audit of the decayed table (posterior uncertainty):")
		report, err := monitor.Audit(context.Background(),
			fairness.WithCredible(500, 1, 0.95),
			fairness.WithMetrics("worst_gap", "worst_ratio", "alpha_if"))
		if err != nil {
			log.Fatal(err)
		}
		if err := report.RenderText(os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	log.Fatal("monitor failed to detect the regression")
}
