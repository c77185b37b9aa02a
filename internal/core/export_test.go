package core

import "encoding/binary"

// IndexKeyBytes returns the key bytes c's index files: the sum of its
// records' key lengths.
func IndexKeyBytes(c *SuccessorCache) int {
	keys := 0
	for i := range c.index.shards {
		sh := &c.index.shards[i]
		sh.mu.Lock()
		if p := sh.recs.Load(); p != nil {
			for rec := (*p)[:sh.used]; len(rec) > 0; {
				n := int(binary.LittleEndian.Uint32(rec[4:]))
				keys += n
				rec = rec[recHeader+n:]
			}
		}
		sh.mu.Unlock()
	}
	return keys
}
