package maxflow

// Solver is the common signature of every max-flow implementation in
// this package. All of them consume the network they are given; Clone
// first to keep the original, or Reset it to solve again.
type Solver func(*Network) Result

// SolverNames lists the implementations in a fixed, deterministic
// order, so differential tests and reports enumerate them stably.
// "pushrelabelhl" is the engine (highest-label + global relabeling)
// and the passive solver's default; "dinic" is the independent
// reference it is checked against.
func SolverNames() []string {
	return []string{
		"dinic",
		"pushrelabelhl",
	}
}

// Solvers maps each name from SolverNames to its implementation. The
// two algorithms are deliberately redundant — same contract, different
// methods — and the conformance harness holds them to agreement on
// flow value and cut validity.
func Solvers() map[string]Solver {
	return map[string]Solver{
		"dinic":         Dinic,
		"pushrelabelhl": PushRelabelHL,
	}
}
