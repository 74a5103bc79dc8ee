package dsl

// Rerun re-executes the command on the concatenation of the parallel
// outputs: rerun_f y1 y2 ⇒ f(y1 ++ y2). Always a correct combiner for
// commands that are idempotent over their own output shape (tr -s, sort,
// head); the pipeline planner may decide that a rerun-combined stage is not
// worth parallelizing (§2).
type Rerun struct{}

// Class returns RunOpClass.
func (Rerun) Class() Class { return RunOpClass }

// Size is |g| per Definition 3.6.
func (Rerun) Size() int { return 3 }

// String renders the operator in the DSL's textual form.
func (Rerun) String() string { return "rerun" }

// InDomain reports y ∈ L(rerun) per Definition B.1.
func (Rerun) InDomain(_ *Env, _ string) bool { return true }

// Eval applies rerun per Figure 6's big-step semantics.
func (r Rerun) Eval(env *Env, y1, y2 string) (string, error) {
	if env == nil || env.RunF == nil {
		return "", evalErr(r, "no command bound in Env")
	}
	return env.RunF(y1 + y2)
}

// Merge invokes the Unix merge ("sort -m <flags>") on two pre-sorted
// streams. Its legality domain is the set of streams sorted under the
// comparator, so it is only plausible for commands whose outputs are
// sorted.
type Merge struct{}

// Class returns RunOpClass.
func (Merge) Class() Class { return RunOpClass }

// Size is |g| per Definition 3.6.
func (Merge) Size() int { return 3 }

// String renders the operator in the DSL's textual form.
func (Merge) String() string { return "merge" }

// DisplayString renders the merge with its flags, e.g. "merge('-rn')",
// matching Table 10's notation.
func (m Merge) DisplayString(env *Env) string { return withFlags(env, "merge") }

// withFlags appends the merge comparator's flags to an operator name,
// e.g. "merge('-rn')", when it has any.
func withFlags(env *Env, name string) string {
	if env != nil && env.Merge != nil && env.Merge.Flags() != "" {
		return name + "('" + env.Merge.Flags() + "')"
	}
	return name
}

// InDomain reports y ∈ L(merge) per Definition B.1.
func (m Merge) InDomain(env *Env, y string) bool {
	if env == nil || env.Merge == nil {
		return false
	}
	return env.Merge.IsSorted(y)
}

// Eval applies merge per Figure 6's big-step semantics.
func (m Merge) Eval(env *Env, y1, y2 string) (string, error) {
	if env == nil || env.Merge == nil {
		return "", evalErr(m, "no merge comparator bound in Env")
	}
	v, sorted := env.Merge.MergeStreams(1, y1, y2)
	if !sorted {
		return "", unsortedErr(m)
	}
	return v, nil
}
