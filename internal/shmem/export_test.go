package shmem

import "slices"

// Memory returns a copy of the memory's values: the registers of M^rw,
// the snapshot object's segments; nil for an iterated model.
func (s *State) Memory() []string { return slices.Clone(s.env.mem) }
