package mobile

import (
	"repro/internal/core"
	"repro/internal/syncmp"
)

// Apply is a single arbitrary environment action (j, G) of the full model
// M^mf (not restricted to the S1 prefix sets), for the layering legality
// tests: every S1 action must be an M^mf action, and sequences of M^mf
// actions generate the full model. It is a one-action syncmp.RoundMemo
// over the model's table, without a cache.
func (m *Model) Apply(x *syncmp.State, j int, omitTo uint64) *syncmp.State {
	r := m.tab.Memo(x, core.Prober{}, 1, false, false, false)
	r.Omit("", j, omitTo)
	succs, _ := r.Done()
	return succs[0].State.(*syncmp.State)
}
