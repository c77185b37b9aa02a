package resilient

import (
	"fmt"
	"runtime/metrics"
	"sync/atomic"
)

// ErrMemory reports that the process heap crossed the configured soft
// memory limit. It wraps ErrPartial — the engine that observed it stops at
// a checkpointable boundary with its partial state intact — and the
// Supervisor's default classifier treats it as a degradation signal:
// step down workers rather than retry at full width into the same wall.
var ErrMemory = Sentinel("resilient: memory pressure")

// softMemLimit holds the soft heap limit in bytes; 0 (the default)
// disables the gate entirely.
var softMemLimit atomic.Int64

// SetSoftMemLimit arms (or, with 0, disarms) the soft heap limit that
// MemPressure checks. The limit is advisory — nothing is freed and no
// allocation fails; engines polling MemPressure at layer boundaries stop
// with a checkpoint once the live heap exceeds it.
func SetSoftMemLimit(bytes int64) { softMemLimit.Store(bytes) }

// SoftMemLimit returns the current soft heap limit (0 = disabled).
func SoftMemLimit() int64 { return softMemLimit.Load() }

// heapMetric is the runtime/metrics series MemPressure reads — live heap
// object bytes, the same series the obs runtime sampler exports as
// runtime.heap_bytes.
const heapMetric = "/memory/classes/heap/objects:bytes"

// MemPressure reports whether the live heap currently exceeds the soft
// limit: nil when the gate is disarmed or the heap is under it, an error
// wrapping ErrMemory otherwise. The disarmed path is a single atomic load,
// so engines poll it wherever they already poll their Ctx.
func MemPressure() error {
	lim := softMemLimit.Load()
	if lim <= 0 {
		return nil
	}
	sample := [1]metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample[:])
	heap := int64(sample[0].Value.Uint64())
	if heap <= lim {
		return nil
	}
	return fmt.Errorf("%w: heap %d B over soft limit %d B", ErrMemory, heap, lim)
}
