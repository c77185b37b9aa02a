package resilient

import (
	"runtime"
	"runtime/debug"
	"sync"

	"repro/internal/obs"
)

// Pool runs a batch of independent shards across worker goroutines with
// panic containment: a panicking worker is recovered into a *PanicError
// carrying the shard id, the stack, and an obs counter snapshot; the
// remaining shards are abandoned (siblings observe cancellation through the
// child context passed to fn) and the call fails instead of the process.
//
// Shards are claimed from a shared cursor, so the pool load-balances
// uneven shards the way the parallel certifier does. When several shards
// fail, the lowest shard index wins, keeping the reported error
// deterministic under scheduling.
type Pool struct {
	// Workers bounds the goroutine count (<= 0 means GOMAXPROCS).
	Workers int
}

// Run executes fn(ctx, shard) for shard in [0, n). The ctx handed to fn is
// a child of the pool's argument: it reports cancellation as soon as the
// parent is canceled or any sibling has failed, so long-running shards can
// poll it at their own granularity. Run returns the error of the
// lowest-indexed failing shard, or parent.Err() when the batch was
// canceled from outside, or nil.
func (p *Pool) Run(parent *Ctx, n int, fn func(ctx *Ctx, shard int) error) error {
	if n <= 0 {
		return parent.Err()
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: same containment, no goroutines.
		for shard := 0; shard < n; shard++ {
			if err := parent.Err(); err != nil {
				return err
			}
			if err := runShard(parent, shard, fn); err != nil {
				return err
			}
		}
		return nil
	}

	child, stop := parent.Child()
	defer stop()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		next   int
		failed = -1
		first  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				shard := next
				next++
				mu.Unlock()
				if shard >= n || child.Err() != nil {
					return
				}
				if err := runShard(child, shard, fn); err != nil {
					mu.Lock()
					if failed < 0 || shard < failed {
						failed, first = shard, err
					}
					mu.Unlock()
					child.Cancel(err)
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return parent.Err()
}

// runShard runs one shard under a recover barrier, converting a panic into
// a *PanicError.
func runShard(ctx *Ctx, shard int, fn func(*Ctx, int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe := &PanicError{Shard: shard, Value: r, Stack: debug.Stack()}
			if rec := obs.Active(); rec != nil {
				pe.Counters = rec.Snapshot()
				rec.Add("resilient.pool.panics", 1)
				rec.Event("pool.panic",
					obs.F{Key: "shard", Value: shard},
					obs.F{Key: "value", Value: pe.Error()})
			}
			err = pe
		}
	}()
	return fn(ctx, shard)
}
