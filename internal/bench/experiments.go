package bench

import "fmt"

// Result is any renderable experiment output (Table, Series or Matrix).
type Result interface {
	fmt.Stringer
}

// experiment maps an id to its driver.
type experiment struct {
	id, description string
	run             func(l *Lab) (Result, error)
}

// registry lists every reproducible artifact — each paper table and figure
// plus the ablations — keyed by the experiment ids DESIGN.md's index uses.
var registry = []experiment{
	{"fig5", "Fig. 5: digits on Raspberry Pi 3B+", func(l *Lab) (Result, error) { return l.Fig5() }},
	{"table1a", "Table I(a): digits on Jetson TX2 CPU", func(l *Lab) (Result, error) { return l.Table1(false) }},
	{"table1b", "Table I(b): digits on Jetson TX2 GPU+CPU", func(l *Lab) (Result, error) { return l.Table1(true) }},
	{"fig6a", "Fig. 6(a): convergence on digits, K=2", func(l *Lab) (Result, error) { return l.Fig6(2) }},
	{"fig6b", "Fig. 6(b): convergence on digits, K=4", func(l *Lab) (Result, error) { return l.Fig6(4) }},
	{"fig7a", "Fig. 7(a): objects on Jetson TX2 CPU", func(l *Lab) (Result, error) { return l.Fig7(false) }},
	{"fig7b", "Fig. 7(b): objects on Jetson TX2 GPU", func(l *Lab) (Result, error) { return l.Fig7(true) }},
	{"table2a", "Table II(a): objects on Jetson TX2 CPU", func(l *Lab) (Result, error) { return l.Table2(false) }},
	{"table2b", "Table II(b): objects on Jetson TX2 GPU+CPU", func(l *Lab) (Result, error) { return l.Table2(true) }},
	{"fig8a", "Fig. 8(a): convergence on objects, K=2", func(l *Lab) (Result, error) { return l.Fig8(2) }},
	{"fig8b", "Fig. 8(b): convergence on objects, K=4", func(l *Lab) (Result, error) { return l.Fig8(4) }},
	{"fig9a", "Fig. 9(a): specialization, K=2", func(l *Lab) (Result, error) { return l.Fig9(2) }},
	{"fig9b", "Fig. 9(b): specialization, K=4", func(l *Lab) (Result, error) { return l.Fig9(4) }},
	{"live-teamnet", "Live: loopback TCP cluster vs the cost model", func(l *Lab) (Result, error) { return l.LiveValidation() }},
	{"ablation-gain", "Ablation: controller gain sweep", func(l *Lab) (Result, error) { return l.AblationGain() }},
	{"ablation-meta", "Ablation: meta-estimator vs fixed sharpness", func(l *Lab) (Result, error) { return l.AblationMetaEstimator() }},
	{"ablation-combiner", "Ablation: arg-min vs weighted vote", func(l *Lab) (Result, error) { return l.AblationCombiner() }},
	{"ablation-static-gate", "Ablation: dynamic vs static gate", func(l *Lab) (Result, error) { return l.AblationStaticGate() }},
	{"ablation-early-exit", "Ablation: adaptive early-exit threshold sweep", func(l *Lab) (Result, error) { return l.AblationEarlyExit() }},
}

// Run executes one experiment by id against the lab.
func Run(l *Lab, id string) (Result, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(l)
		}
	}
	return nil, fmt.Errorf("bench: unknown experiment %q (known: %v)", id, IDs())
}

// IDs returns all experiment ids in declaration (paper) order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string {
	for _, e := range registry {
		if e.id == id {
			return e.description
		}
	}
	return ""
}
