package core

import "repro/internal/resilient"

// ErrNodeBudget is returned by ExploreIDCtx when the reachable state graph
// exceeds the configured node budget before the depth bound is reached. The
// partial graph explored so far is returned alongside the wrapped error, so
// callers can report how far exploration got. As a resilient.Sentinel it
// wraps resilient.ErrPartial, joining the canceled/deadline family under
// one degradation check.
var ErrNodeBudget = resilient.Sentinel("core: exploration exceeded node budget")
