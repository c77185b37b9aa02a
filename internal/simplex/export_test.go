package simplex

// DiffKThickConnected exposes diffKThickConnected to the external tests,
// which check the kernel against the reference over the task zoo.
var DiffKThickConnected = diffKThickConnected
