package cli

import (
	"errors"
	"fmt"
	"strconv"
	"time"
)

// atLeast is an int flag that rejects a value below min when it is
// parsed, so the error names the flag before the tool prints anything.
type atLeast struct {
	v   *int
	min int
}

func (f atLeast) String() string {
	if f.v == nil {
		return "0"
	}
	return strconv.Itoa(*f.v)
}

func (f atLeast) Set(s string) error {
	v, err := strconv.ParseInt(s, 0, strconv.IntSize) // as flag.Int parses
	if err != nil {
		return err
	}
	if v < int64(f.min) {
		return fmt.Errorf("must be >= %d", f.min)
	}
	*f.v = int(v)
	return nil
}

// duration is a time.Duration flag that rejects a negative value when it
// is parsed.
type duration struct{ v *time.Duration }

func (f duration) String() string {
	if f.v == nil {
		return "0s"
	}
	return f.v.String()
}

func (f duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	if v < 0 {
		return errors.New("must not be negative")
	}
	*f.v = v
	return nil
}
