package core

// labelTable is a successor cache's table of edge labels. An edge holds
// its action's label id, never a string, and the table renders the id. A
// keyed model's label ids index the label list it hands its cache once
// (KeyedSuccessor.Labels, asked on the first rendering); a plain
// Successor's labels are interned on first sight, and a later lookup takes
// no lock.
type labelTable struct {
	// list returns a keyed model's label list; nil for a plain cache.
	list func() []string
	// interned files a plain model's labels; nil for a keyed cache.
	interned *strTab
}

// label returns the label of id.
func (t *labelTable) label(id uint32) string {
	if t.interned != nil {
		return t.interned.ents.At(id).s
	}
	return t.list()[id]
}

// ids maps labels to their ids: a plain model's are interned, a keyed
// model's looked up in its list. ok is false, with the first label the
// list lacks, when a keyed model has no such label.
func (t *labelTable) ids(labels []string) (ids []uint32, missing string, ok bool) {
	ids = make([]uint32, len(labels))
	if t.interned != nil {
		for i, s := range labels {
			ids[i] = t.interned.id(s)
		}
		return ids, "", true
	}
	list := t.list()
	byName := make(map[string]uint32, len(list))
	for id, s := range list {
		if _, dup := byName[s]; !dup {
			byName[s] = uint32(id)
		}
	}
	for i, s := range labels {
		id, found := byName[s]
		if !found {
			return nil, s, false
		}
		ids[i] = id
	}
	return ids, "", true
}
