package core

// Work tallies the work a Borg has done since New or Reset in counts
// the seed fixes: one seed gives the same counts on every machine,
// however fast its code. Cost prices them, and that price is the T_A
// the virtual-time drivers charge their master instead of a clock's.
type Work struct {
	// Folds counts solutions offered to the population and the archive
	// (Accept and InjectEvaluated).
	Folds uint64
	// Scanned counts the population members Population.Add compared a
	// solution against: the loop index at exit — one past the member
	// that rejected it, or the population size — so neither the lane
	// prefilter nor the orthant index, which skip members, changes it.
	// It counts the members a flat scan passes, not those Add reads.
	Scanned uint64
	// Draws counts Tournament draws.
	Draws uint64
	// ChildVars counts the decision variables variation operators wrote
	// into Suggest's offspring.
	ChildVars uint64
	// SampledVars counts the decision variables written by uniform
	// draws and restart injections.
	SampledVars uint64
	// SweptVars counts the variables the operators' Gram-Schmidt sweeps
	// updated (operators.Scratch.Swept).
	SweptVars uint64
}

// Work returns b's counts so far.
func (b *Borg) Work() Work {
	w := b.work
	w.Scanned, w.Draws = b.pop.scanned, b.pop.draws
	return w
}

// workPicos prices one unit of each Work count, in picoseconds. They
// are a least-squares fit of timed serial brackets against their counts
// (experiment.CollectTimings, `borgexp fitdist -collect`); EXPERIMENTS.md
// gives the run, its R² and the counts the fit dropped.
var workPicos = Work{
	Folds:       473000,
	Scanned:     1560,
	Draws:       6790,
	ChildVars:   142000,
	SampledVars: 12100,
	SweptVars:   3990,
}

// Cost returns w priced: Σ c_k·count_k, in seconds. The sum is taken
// in integer picoseconds, so it is exact and the same on every
// platform.
func (w Work) Cost() float64 {
	c := workPicos
	ps := w.Folds*c.Folds + w.Scanned*c.Scanned + w.Draws*c.Draws +
		w.ChildVars*c.ChildVars + w.SampledVars*c.SampledVars + w.SweptVars*c.SweptVars
	return float64(ps) / 1e12
}

// Cost returns the cost of b's work so far, Work().Cost(): the clock a
// virtual-time master reads its T_A from.
func (b *Borg) Cost() float64 { return b.Work().Cost() }
