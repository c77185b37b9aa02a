// Package resilient is a fixture stand-in for the engine's resilience
// layer: ctxpoll recognizes Ctx by name and package-path suffix, so this
// stub triggers the same checks as the real package.
package resilient

// Ctx mirrors the real cancellation context's shape.
type Ctx struct{ canceled bool }

// Err is the intrinsic poll: one load of the cancel flag.
func (c *Ctx) Err() error {
	if c != nil && c.canceled {
		return errCanceled
	}
	return nil
}

type ctxErr struct{ s string }

func (e *ctxErr) Error() string { return e.s }

var errCanceled = &ctxErr{"canceled"}
