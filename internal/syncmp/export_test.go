package syncmp

// Test-only access for package syncmp_test.

// OmitMany runs omitMany.
func (r *RoundMemo) OmitMany(label uint32, oms []Omission) { r.omitMany(label, oms) }

// Locals returns a copy of the per-process local states.
func (s *State) Locals() []string { return append([]string(nil), s.locals...) }

// MemoCounts returns the round-memo totals of the table that filed x: the
// receivers resolved, the resolutions the memos' own lists could not
// answer, and the Deliver runs.
func MemoCounts(x *State) (resolved, listMisses, runs uint64) {
	t := x.tab
	return t.resolved.Load(), t.listMisses.Load(), t.runs.Load()
}
