// Package internfreeze exercises the internfreeze analyzer: writes to
// fields of a type carrying the interned-state fingerprint (Key, Local,
// FailedAt) are flagged outside constructor/clone functions and allowed
// inside them; plain structs are never flagged.
package internfreeze

import "strconv"

// State carries the core.State fingerprint, so it is treated as interned.
type State struct {
	locals []string
	failed []bool
	key    string
}

func (s *State) Key() string         { return s.key }
func (s *State) Local(i int) string  { return s.locals[i] }
func (s *State) FailedAt(i int) bool { return s.failed[i] }

// Scratch lacks the fingerprint: writable anywhere.
type Scratch struct {
	count int
	note  string
}

// NewState is a constructor: field initialization is allowed.
func NewState(locals []string) *State {
	s := &State{}
	s.locals = locals
	s.failed = make([]bool, len(locals))
	s.key = strconv.Itoa(len(locals))
	return s
}

// CloneWithFailure is a clone helper: writes allowed.
func CloneWithFailure(s *State, i int) *State {
	c := &State{locals: s.locals, key: s.key}
	c.failed = append([]bool(nil), s.failed...)
	c.failed[i] = true
	return c
}

// BadMutate writes interned fields outside a constructor: flagged.
func BadMutate(s *State, v string) {
	s.key = v          // want "write to field key of interned state type State"
	s.locals[0] = v    // want "write to field locals of interned state type State"
	s.failed[1] = true // want "write to field failed of interned state type State"
}

// BadIncrement uses ++ on a field reached through the state: flagged.
func BadIncrement(states []*State) {
	for _, s := range states {
		s.key += "!" // want "write to field key of interned state type State"
	}
}

// AnnotatedRepair documents a deliberate pre-intern fixup: allowed.
func AnnotatedRepair(s *State) {
	s.key = "" //lint:mutates not yet interned
}

// GoodScratchMutate writes a non-state struct: allowed.
func GoodScratchMutate(sc *Scratch) {
	sc.count++
	sc.note = "ok"
}

// GoodLocalRead only reads state fields: allowed.
func GoodLocalRead(s *State) string {
	return s.Key() + s.Local(0)
}
