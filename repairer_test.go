package fairness_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	fairness "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/rng"
)

func admissionsRepairer(t *testing.T, opts ...fairness.RepairOption) (*fairness.Repairer, *fairness.Counts) {
	t.Helper()
	counts := datasets.Admissions()
	all := append([]fairness.RepairOption{fairness.WithTargetEpsilon(0.5)}, opts...)
	rep, err := fairness.NewRepairer(counts.Space(), counts.Outcomes(), all...)
	if err != nil {
		t.Fatal(err)
	}
	return rep, counts
}

func TestRepairerAdmissionsPlan(t *testing.T) {
	rep, counts := admissionsRepairer(t)
	plan, err := rep.Plan(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.SchemaVersion != fairness.RepairPlanSchemaVersion {
		t.Errorf("schema version %d", plan.SchemaVersion)
	}
	if math.Abs(float64(plan.EpsilonBefore)-1.5116) > 1e-3 {
		t.Errorf("epsilon before %v, want ~1.5116", plan.EpsilonBefore)
	}
	if float64(plan.AchievedEpsilon) > 0.5+1e-9 {
		t.Errorf("achieved %v exceeds target", plan.AchievedEpsilon)
	}
	if float64(plan.Observations) != counts.Total() {
		t.Errorf("observations %v, want %v", plan.Observations, counts.Total())
	}
	if plan.ExpectedChanged <= 0 || math.Abs(float64(plan.ExpectedChanged-plan.Movement*plan.Observations)) > 1e-9 {
		t.Errorf("expected_changed %v inconsistent with movement %v", plan.ExpectedChanged, plan.Movement)
	}
	if plan.PositiveOutcome != "admit" {
		t.Errorf("positive outcome %q", plan.PositiveOutcome)
	}
	if len(plan.Groups) != 4 {
		t.Fatalf("got %d group plans", len(plan.Groups))
	}
	// The ladder covers every nonempty attribute subset, repaired at or
	// under target everywhere the full intersection is (Theorem 3.2 gives
	// 2·target for proper subsets; the repaired full table satisfies
	// target, so marginals satisfy 2·target).
	if len(plan.Ladder) != 3 {
		t.Fatalf("got %d ladder rows", len(plan.Ladder))
	}
	for _, row := range plan.Ladder {
		if float64(row.EpsilonAfter) > 2*0.5+1e-9 {
			t.Errorf("subset %v repaired eps %v above the Theorem 3.2 bound", row.Attrs, row.EpsilonAfter)
		}
	}
}

// TestRepairerPropertyRandom is the public-surface property suite: for
// randomized spaces, rates and weights, the achieved ε of every plan is
// at most the target under core.Epsilon, leveling-down accounting is
// consistent, and the guard variant never lowers a rate.
func TestRepairerPropertyRandom(t *testing.T) {
	r := rng.New(515)
	for trial := 0; trial < 200; trial++ {
		nVals := 2 + r.Intn(3)
		vals := make([]string, nVals)
		for i := range vals {
			vals[i] = string(rune('a' + i))
		}
		space := fairness.MustSpace(
			fairness.Attr{Name: "x", Values: vals},
			fairness.Attr{Name: "y", Values: []string{"0", "1"}},
		)
		counts := fairness.MustCounts(space, []string{"no", "yes"})
		for g := 0; g < space.Size(); g++ {
			total := 10 + float64(r.Intn(500))
			pos := math.Floor(total * r.Float64())
			counts.MustAdd(g, 1, pos)
			counts.MustAdd(g, 0, total-pos)
		}
		target := 0.02 + 1.5*r.Float64()
		guard := trial%2 == 1
		rep, err := fairness.NewRepairer(space, counts.Outcomes(),
			fairness.WithTargetEpsilon(target),
			fairness.WithLevelingDownGuard(guard),
			fairness.WithAlpha(float64(trial%3)*0.5)) // sweep empirical and smoothed
		if err != nil {
			t.Fatal(err)
		}
		plan, err := rep.Plan(context.Background(), counts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := float64(plan.AchievedEpsilon); got > target+1e-6 {
			t.Fatalf("trial %d: achieved eps %v > target %v", trial, got, target)
		}
		var leveled float64
		var totalW float64
		for _, gp := range plan.Groups {
			if guard && gp.NewRate < gp.OldRate-1e-12 {
				t.Fatalf("trial %d: guard violated for %s: %v -> %v", trial, gp.Group, gp.OldRate, gp.NewRate)
			}
			if float64(gp.LevelingDown) != math.Max(0, float64(gp.OldRate-gp.NewRate)) {
				t.Fatalf("trial %d: group leveling_down inconsistent: %+v", trial, gp)
			}
			leveled += float64(gp.Weight * gp.LevelingDown)
			totalW += float64(gp.Weight)
		}
		if math.Abs(float64(plan.LevelingDown)-leveled/totalW) > 1e-9 {
			t.Fatalf("trial %d: plan leveling_down %v, groups say %v", trial, plan.LevelingDown, leveled/totalW)
		}
	}
}

// TestRepairerPlanDeterministic: plans render byte-identically across
// GOMAXPROCS and worker counts — the slot-indexed parallel ladder must
// not leak scheduling into the output.
func TestRepairerPlanDeterministic(t *testing.T) {
	var golden []byte
	for _, procs := range []int{1, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 3, 16} {
			rep, counts := admissionsRepairer(t, fairness.WithWorkers(workers), fairness.WithSeed(7))
			plan, err := rep.Plan(context.Background(), counts)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := plan.RenderJSON(&buf); err != nil {
				runtime.GOMAXPROCS(prev)
				t.Fatal(err)
			}
			if golden == nil {
				golden = buf.Bytes()
			} else if !bytes.Equal(golden, buf.Bytes()) {
				runtime.GOMAXPROCS(prev)
				t.Fatalf("plan diverged at GOMAXPROCS=%d workers=%d:\n%s\nvs\n%s",
					procs, workers, golden, buf.Bytes())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestRepairPlanJSONRoundTrip: a decoded plan compiles into an Applier
// that makes the same decisions as the original's.
func TestRepairPlanJSONRoundTrip(t *testing.T) {
	rep, counts := admissionsRepairer(t, fairness.WithSeed(11))
	plan, err := rep.Plan(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded fairness.RepairPlan
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	a1, err := plan.Applier()
	if err != nil {
		t.Fatal(err)
	}
	a2, err := decoded.Applier()
	if err != nil {
		t.Fatal(err)
	}
	const n = 8192
	groups := make([]int, n)
	d1 := make([]int, n)
	d2 := make([]int, n)
	r := rng.New(3)
	for i := range groups {
		groups[i] = r.Intn(4)
		d1[i] = r.Intn(2)
		d2[i] = d1[i]
	}
	if _, err := a1.Apply(groups, d1); err != nil {
		t.Fatal(err)
	}
	if _, err := a2.Apply(groups, d2); err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("decision %d diverged after JSON round trip", i)
		}
	}
}

// TestApplierRejectedBatchClaimsNoTickets: Validate and a rejected Apply
// leave the ticket counter alone, so the decisions after a rejected
// batch are the ones a fresh applier produces.
func TestApplierRejectedBatchClaimsNoTickets(t *testing.T) {
	rep, counts := admissionsRepairer(t)
	plan, err := rep.Plan(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := plan.Applier()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := plan.Applier()
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	groups := make([]int, n)
	got := make([]int, n)
	r := rng.New(7)
	for i := range groups {
		groups[i] = r.Intn(4)
		got[i] = r.Intn(2)
	}
	want := append([]int(nil), got...)
	bad := append([]int(nil), got...)
	bad[n/2] = 2 // not a binary decision
	if err := app.Validate(groups, bad); err == nil {
		t.Fatal("Validate accepted a non-binary decision")
	}
	if _, err := app.Apply(groups, bad); err == nil {
		t.Fatal("Apply accepted a non-binary decision")
	}
	if err := app.Validate(groups, got); err != nil {
		t.Fatal(err)
	}
	if c := app.Tickets(); c != 0 {
		t.Fatalf("rejected batch and Validate claimed %d tickets", c)
	}
	if _, err := app.Apply(groups, got); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Apply(groups, want); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatal("decisions after a rejected batch differ from a fresh applier's")
	}
}

// TestApplierConcurrentDeterminism: concurrent ApplyAt calls with
// explicit tickets produce the same stream as one sequential pass.
func TestApplierConcurrentDeterminism(t *testing.T) {
	rep, counts := admissionsRepairer(t)
	plan, err := rep.Plan(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := plan.Applier()
	if err != nil {
		t.Fatal(err)
	}
	conc, err := plan.Applier()
	if err != nil {
		t.Fatal(err)
	}
	const n, batch = 16384, 256
	groups := make([]int, n)
	want := make([]int, n)
	got := make([]int, n)
	r := rng.New(21)
	for i := range groups {
		groups[i] = r.Intn(4)
		want[i] = r.Intn(2)
		got[i] = want[i]
	}
	if _, err := seq.ApplyAt(0, groups, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for off := 0; off < n; off += batch {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			if _, err := conc.ApplyAt(uint64(off), groups[off:off+batch], got[off:off+batch]); err != nil {
				t.Error(err)
			}
		}(off)
	}
	wg.Wait()
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("decision %d depends on scheduling", i)
		}
	}
}

func TestRepairerOptionValidation(t *testing.T) {
	counts := datasets.Admissions()
	space, outcomes := counts.Space(), counts.Outcomes()
	cases := []struct {
		name string
		opt  fairness.RepairOption
	}{
		{"negative target", fairness.WithTargetEpsilon(-0.1)},
		{"NaN target", fairness.WithTargetEpsilon(math.NaN())},
		{"infinite target", fairness.WithTargetEpsilon(math.Inf(1))},
		{"zero movement cap", fairness.WithMaxMovement(0)},
		{"movement cap above 1", fairness.WithMaxMovement(1.5)},
		{"NaN movement cap", fairness.WithMaxMovement(math.NaN())},
		{"negative alpha", fairness.WithAlpha(-1)},
		{"negative workers", fairness.WithWorkers(-2)},
	}
	for _, tc := range cases {
		if _, err := fairness.NewRepairer(space, outcomes, fairness.WithTargetEpsilon(0.5), tc.opt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := fairness.NewRepairer(space, outcomes); err == nil {
		t.Error("missing WithTargetEpsilon accepted")
	}
	if _, err := fairness.NewRepairer(nil, outcomes, fairness.WithTargetEpsilon(0.5)); err == nil {
		t.Error("nil space accepted")
	}
	if _, err := fairness.NewRepairer(space, []string{"a", "b", "c"}, fairness.WithTargetEpsilon(0.5)); err == nil {
		t.Error("three outcomes accepted")
	}
	if _, err := fairness.NewRepairer(space, outcomes, nil); err == nil {
		t.Error("nil option accepted")
	}
	// A zero SharedOption carries no setting; it must error, not panic.
	if _, err := fairness.NewRepairer(space, outcomes,
		fairness.WithTargetEpsilon(0.5), fairness.SharedOption{}); err == nil {
		t.Error("zero SharedOption accepted by NewRepairer")
	}
	if _, err := fairness.NewAuditor(space, outcomes, fairness.SharedOption{}); err == nil {
		t.Error("zero SharedOption accepted by NewAuditor")
	}
}

func TestRepairerMaxMovement(t *testing.T) {
	counts := datasets.Admissions()
	rep, err := fairness.NewRepairer(counts.Space(), counts.Outcomes(),
		fairness.WithTargetEpsilon(0.1), fairness.WithMaxMovement(0.001))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Plan(context.Background(), counts); !errors.Is(err, fairness.ErrMaxMovementExceeded) {
		t.Fatalf("got %v, want ErrMaxMovementExceeded", err)
	}
	// A loose cap admits the same plan.
	rep, err = fairness.NewRepairer(counts.Space(), counts.Outcomes(),
		fairness.WithTargetEpsilon(0.1), fairness.WithMaxMovement(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Plan(context.Background(), counts); err != nil {
		t.Fatal(err)
	}
}

func TestRepairerDegenerate(t *testing.T) {
	space := datasets.AdmissionsSpace()
	empty := fairness.MustCounts(space, datasets.AdmissionsOutcomes)
	rep, err := fairness.NewRepairer(space, datasets.AdmissionsOutcomes, fairness.WithTargetEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Plan(context.Background(), empty); !errors.Is(err, fairness.ErrDegenerateSupport) {
		t.Fatalf("empty counts: got %v, want ErrDegenerateSupport", err)
	}
	single := fairness.MustCounts(space, datasets.AdmissionsOutcomes)
	single.MustAdd(2, 1, 50)
	single.MustAdd(2, 0, 50)
	if _, err := rep.Plan(context.Background(), single); !errors.Is(err, fairness.ErrDegenerateSupport) {
		t.Fatalf("single-group counts: got %v, want ErrDegenerateSupport", err)
	}
	if _, err := rep.Plan(context.Background(), nil); err == nil {
		t.Error("nil counts accepted")
	}
	other := fairness.MustCounts(fairness.MustSpace(fairness.Attr{Name: "z", Values: []string{"0", "1"}}),
		datasets.AdmissionsOutcomes)
	if _, err := rep.Plan(context.Background(), other); err == nil {
		t.Error("mismatched space accepted")
	}
}

// TestRepairerPlanMonitor closes the loop in-process: ingest admissions
// into a windowed monitor, watch it alert, repair from the live
// snapshot, and verify the repaired CPT meets the target.
func TestRepairerPlanMonitor(t *testing.T) {
	counts := datasets.Admissions()
	mon, err := fairness.NewTumblingMonitor(counts.Space(), counts.Outcomes(), 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := fairness.NewWatch(mon, 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	groups, outcomes := expandCounts(counts)
	alert, _, err := watch.ObserveBatchChecked(groups, outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if alert == nil {
		t.Fatal("admissions ingest did not trip the eps=1.0 watch")
	}
	rep, err := fairness.NewRepairer(counts.Space(), counts.Outcomes(), fairness.WithTargetEpsilon(0.5))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rep.PlanMonitor(context.Background(), mon)
	if err != nil {
		t.Fatal(err)
	}
	if float64(plan.AchievedEpsilon) > 0.5+1e-9 {
		t.Fatalf("achieved eps %v", plan.AchievedEpsilon)
	}
	if float64(plan.Observations) != counts.Total() {
		t.Fatalf("plan observed %v of %v decisions", plan.Observations, counts.Total())
	}
}

// expandCounts unrolls a contingency table into parallel group/outcome
// index arrays in deterministic cell order.
func expandCounts(c *core.Counts) (groups, outcomes []int) {
	for g := 0; g < c.Space().Size(); g++ {
		for y := 0; y < c.NumOutcomes(); y++ {
			for k := 0; k < int(c.N(g, y)); k++ {
				groups = append(groups, g)
				outcomes = append(outcomes, y)
			}
		}
	}
	return groups, outcomes
}
