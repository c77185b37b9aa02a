package analysis

import (
	"encoding/json"
	"fmt"
	"go/types"
)

// Facts are how analysis results cross package boundaries: an analyzer
// running on package P attaches a small JSON-serializable value to one of
// P's declared objects (a function that polls cancellation, a helper that
// allocates), and the same analyzer
// running later on an importer of P reads it back. The standalone driver
// carries one in-memory store across the dependency-ordered package walk;
// the unitchecker driver serializes the store into the .vetx file go vet
// already threads between compilation units.
//
// Keys are strings rather than types.Object pointers because the producer
// and the consumer see *different* object identities for the same
// declaration (the producer typechecks P from source, the consumer may see
// P through export data). ObjKey builds matching keys from either view.

// FactStore holds every (analyzer, object) fact seen so far.
type FactStore struct {
	facts map[string]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: make(map[string]json.RawMessage)}
}

func factKey(analyzer, objKey string) string {
	return analyzer + "\x00" + objKey
}

func (s *FactStore) put(analyzer, objKey string, fact any) error {
	if objKey == "" {
		return nil
	}
	data, err := json.Marshal(fact)
	if err != nil {
		return fmt.Errorf("encoding %s fact for %s: %w", analyzer, objKey, err)
	}
	s.facts[factKey(analyzer, objKey)] = data
	return nil
}

func (s *FactStore) get(analyzer, objKey string, fact any) bool {
	data, ok := s.facts[factKey(analyzer, objKey)]
	if !ok {
		return false
	}
	return json.Unmarshal(data, fact) == nil
}

// Len reports the number of stored facts.
func (s *FactStore) Len() int { return len(s.facts) }

// Encode serializes the whole store. The unitchecker driver writes this as
// the package's .vetx payload; because the store already contains the
// merged facts of every dependency, importers only need to read their
// direct imports' files.
func (s *FactStore) Encode() ([]byte, error) {
	return json.Marshal(s.facts)
}

// Merge decodes a serialized store (as produced by Encode) into s,
// overwriting on key collisions — facts are deterministic functions of the
// defining package, so colliding values agree.
func (s *FactStore) Merge(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("decoding fact store: %w", err)
	}
	for k, v := range m {
		s.facts[k] = v
	}
	return nil
}

// ObjKey returns the stable cross-package key of a package-level function,
// method, or other named object: "pkgpath.Name" for package-level objects,
// "pkgpath.(Recv).Name" for methods (pointerness of the receiver is
// erased — a method set has one owner either way). Returns "" for objects
// facts cannot attach to (builtins, locals without package context).
func ObjKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return obj.Pkg().Path() + ".(" + named.Obj().Name() + ")." + obj.Name()
			}
			return "" // method on an unnamed receiver (interface literal)
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// ExportFact attaches fact to key under the pass's analyzer. Facts must be
// JSON-serializable; an empty key is a silent no-op (the object has no
// cross-package identity).
func (p *Pass) ExportFact(key string, fact any) {
	_ = p.Facts.put(p.Analyzer.Name, key, fact)
}

// ImportFact loads the fact previously exported under key by this pass's
// analyzer (in this package or any dependency), reporting whether one was
// found.
func (p *Pass) ImportFact(key string, fact any) bool {
	return p.Facts.get(p.Analyzer.Name, key, fact)
}
