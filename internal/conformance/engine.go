package conformance

import (
	"fmt"
	"math/rand"
	"sort"

	"monoclass/internal/core"
	"monoclass/internal/geom"
	"monoclass/internal/oracle"
	"monoclass/internal/problem"
)

// Config parameterizes one engine run.
type Config struct {
	// Seed drives the whole run; the same (Seed, Trials, Long) triple
	// reproduces the identical trial sequence.
	Seed int64
	// Trials is the number of generated instances; each one passes
	// through the full deterministic check suite.
	Trials int
	// Long enables the larger size schedule for soak runs.
	Long bool
	// ReproDir, when non-empty, receives a shrunken repro-*.json file
	// for every divergence.
	ReproDir string
	// ActiveEvery audits the active algorithm's (1+ε) guarantee on
	// every k-th trial (default 8; negative disables). The audit is
	// statistical, so it is aggregated over the whole run rather than
	// judged per instance.
	ActiveEvery int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Divergence records one conformance failure.
type Divergence struct {
	Check     string // check name ("active-approx-audit" for the aggregate audit)
	Family    string // workload family of the failing instance
	Trial     int    // trial index within the run
	Err       string // divergence message
	ReproPath string // written repro file, if any
	ShrunkN   int    // point count after shrinking
}

// ActiveAudit aggregates the statistical (1+ε) audit: every audited
// instance runs the sampling pipeline Repeats times against the exact
// passive optimum k*, counting repeats with err_P(h) > (1+Eps)·k*.
// The per-repeat failure probability is bounded by Delta, so the run
// fails only when violations exceed the generous aggregate thresholds
// in auditVerdict (majority failures on >1/16 of instances, or >20% of
// all repeats).
type ActiveAudit struct {
	Eps              float64
	Delta            float64
	Repeats          int
	Instances        int
	Violations       int // repeats exceeding the bound
	MajorityFailures int // instances where a strict majority of repeats exceeded it
}

// Report is the outcome of an engine run.
type Report struct {
	Trials      int
	ChecksRun   int
	PerCheck    map[string]int
	Active      ActiveAudit
	Divergences []Divergence
}

// Summary renders the report as a small markdown table plus the
// divergence list, in the style of the repo's bench tables.
func (r Report) Summary() string {
	out := fmt.Sprintf("| check | runs |\n|---|---|\n")
	names := make([]string, 0, len(r.PerCheck))
	for name := range r.PerCheck {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out += fmt.Sprintf("| %s | %d |\n", name, r.PerCheck[name])
	}
	out += fmt.Sprintf("| active-approx-audit | %d instances × %d repeats, %d violations |\n",
		r.Active.Instances, r.Active.Repeats, r.Active.Violations)
	out += fmt.Sprintf("\ntrials: %d, checks run: %d, divergences: %d\n",
		r.Trials, r.ChecksRun, len(r.Divergences))
	for _, d := range r.Divergences {
		out += fmt.Sprintf("DIVERGENCE %s on %s (trial %d, shrunk to %d points): %s",
			d.Check, d.Family, d.Trial, d.ShrunkN, d.Err)
		if d.ReproPath != "" {
			out += fmt.Sprintf(" [repro: %s]", d.ReproPath)
		}
		out += "\n"
	}
	return out
}

// Run executes the conformance engine: Trials seeded workloads, the
// full deterministic differential + metamorphic suite on each, the
// aggregated active-approximation audit on a subsample, shrinking and
// repro persistence on any divergence.
func Run(cfg Config) Report {
	rep := Report{PerCheck: make(map[string]int)}
	if cfg.Trials <= 0 {
		return rep
	}
	activeEvery := cfg.ActiveEvery
	if activeEvery == 0 {
		activeEvery = 8
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	suite := Checks()
	for trial := 0; trial < cfg.Trials; trial++ {
		in := GenerateWorkload(cfg.Seed, trial, cfg.Long)
		rep.Trials++
		for _, c := range suite {
			rep.ChecksRun++
			rep.PerCheck[c.Name]++
			err := Safe(c.Fn, in)
			if err == nil {
				continue
			}
			logf("divergence in %s on %s (trial %d): %v — shrinking", c.Name, in.Family, trial, err)
			shrunk := Shrink(in, c.Fn)
			shrunk.Check = c.Name
			finalErr := Safe(c.Fn, shrunk)
			if finalErr == nil {
				// Cannot happen (Shrink preserves failure), but never
				// report a repro that does not reproduce.
				shrunk, finalErr = in, err
				shrunk.Check = c.Name
			}
			shrunk.Note = finalErr.Error()
			d := Divergence{
				Check:   c.Name,
				Family:  in.Family,
				Trial:   trial,
				Err:     finalErr.Error(),
				ShrunkN: shrunk.N(),
			}
			if cfg.ReproDir != "" {
				if path, werr := WriteRepro(cfg.ReproDir, shrunk); werr == nil {
					d.ReproPath = path
				} else {
					logf("writing repro failed: %v", werr)
				}
			}
			rep.Divergences = append(rep.Divergences, d)
		}
		if activeEvery > 0 && trial%activeEvery == 0 {
			auditActiveApprox(&rep.Active, in)
		}
		if trial > 0 && trial%50 == 0 {
			logf("%d/%d trials, %d checks, %d divergences", trial, cfg.Trials, rep.ChecksRun, len(rep.Divergences))
		}
	}

	if msg := auditVerdict(rep.Active); msg != "" {
		rep.Divergences = append(rep.Divergences, Divergence{
			Check: "active-approx-audit",
			Err:   msg,
		})
	}
	return rep
}

// auditActiveApprox runs the sampling pipeline on one instance (unit
// weights — the guarantee is stated for err_P) and tallies repeats
// whose classifier error exceeds (1+ε)·k*.
func auditActiveApprox(a *ActiveAudit, in Instance) {
	const (
		eps     = 0.5
		delta   = 0.05
		repeats = 3
		minN    = 16
	)
	a.Eps, a.Delta, a.Repeats = eps, delta, repeats
	n := in.N()
	if n < minN || n > activeMaxN {
		return
	}
	pts := in.Pts()
	labels := in.GeomLabels()
	lab := in.Labeled()
	unit := make(geom.WeightedSet, n)
	for i := range unit {
		unit[i] = geom.WeightedPoint{P: pts[i], Label: labels[i], Weight: 1}
	}
	opt, err := problem.Solve(unit)
	if err != nil {
		return
	}
	kstar := opt.WErr

	a.Instances++
	bad := 0
	for r := 0; r < repeats; r++ {
		rng := rand.New(rand.NewSource(in.Seed ^ int64(0x617564697400+r)))
		res, err := core.ActiveLearn(pts, oracle.NewStatic(labels), core.PracticalParams(eps, delta), rng)
		if err != nil {
			bad++ // a failing run counts against the guarantee
			continue
		}
		if float64(geom.Err(lab, res.Classifier.Classify)) > (1+eps)*kstar+1e-9 {
			bad++
		}
	}
	a.Violations += bad
	if 2*bad > repeats {
		a.MajorityFailures++
	}
}

// auditVerdict converts the aggregate audit tallies into a divergence
// message, or "" when within tolerance. Thresholds are deliberately
// loose: each repeat may fail with probability Delta by design, so
// only systematic violation — most repeats wrong on many instances —
// indicts the implementation.
func auditVerdict(a ActiveAudit) string {
	if a.Instances == 0 {
		return ""
	}
	if allowed := 1 + a.Instances/16; a.MajorityFailures > allowed {
		return fmt.Sprintf("(1+ε) audit: majority of repeats violated the bound on %d of %d instances (allowed %d)",
			a.MajorityFailures, a.Instances, allowed)
	}
	total := a.Instances * a.Repeats
	if a.Violations*5 > total {
		return fmt.Sprintf("(1+ε) audit: %d of %d repeats violated the bound (>20%%)", a.Violations, total)
	}
	return ""
}
