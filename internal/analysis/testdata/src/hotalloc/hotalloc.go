// Fixtures for the hotalloc analyzer. The hothelpers fixture package is
// analyzed first (see suite_test.go), so Format's "allocates" fact arrives
// here through the store and the violation sits two helper frames away
// from the hotpath call site.
package hotalloc

import (
	"sync/atomic"

	"hothelpers"
)

var sink any

type point struct{ x, y int }

// localAlloc is one local frame above its allocation.
func localAlloc() []int { return make([]int, 4) }

func consume(v any) { sink = v }

func tick() {}

//lint:hotpath
func BadMake(n int) int {
	buf := make([]byte, n) // want "call of make allocates"
	return len(buf)
}

//lint:hotpath
func BadComposite(x, y int) int {
	p := point{x, y} // want "composite literal allocates"
	return p.x + p.y
}

//lint:hotpath
func BadConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//lint:hotpath
func BadConversion(b []byte) string {
	return string(b) // want "conversion allocates"
}

//lint:hotpath
func BadClosure(n int) func() int {
	return func() int { return n } // want "function literal allocates its closure header"
}

//lint:hotpath
func BadGo() {
	go tick() // want "go statement allocates a goroutine"
}

//lint:hotpath
func BadBoxing(n int) {
	consume(n) // want "passing int to an interface parameter boxes it"
}

//lint:hotpath
func BadLocalHelper() int {
	return len(localAlloc()) // want "calls localAlloc, which allocates: call of make allocates"
}

//lint:hotpath
func BadTwoFramesAway(v int) int {
	return len(hothelpers.Format(v)) // want "calls Format, which allocates: calls format, which allocates"
}

//lint:hotpath
func GoodAppend(dst []byte, b byte) []byte {
	return append(dst, b)
}

//lint:hotpath
func BadConcatConversion(b []byte, s string) string {
	return string(b) + s // want "conversion allocates" "string concatenation allocates"
}

//lint:hotpath
func BadAssignedConversion(b []byte, s string) bool {
	x := string(b) // want "conversion allocates"
	return x == s
}

//lint:hotpath
func GoodMapProbe(m map[string]int, b []byte) int {
	return m[string(b)]
}

//lint:hotpath
func GoodCompare(b []byte, s string) bool {
	return string(b) == s
}

//lint:hotpath
func GoodCompareRight(b []byte, s string) bool {
	return s != (string(b))
}

//lint:hotpath
func GoodOrder(a, b []byte) bool {
	return string(a) < string(b)
}

//lint:hotpath
func GoodAtomicAndFactFree(c *uint64, v uint64) uint64 {
	atomic.AddUint64(c, hothelpers.Mask(v))
	return atomic.LoadUint64(c)
}

//lint:hotpath
func GoodPointerArg(p *point) {
	consume(p) // pointer-shaped: the interface header reuses the word
}

// UnmarkedAllocates has no hotpath marker: constructs here carry facts but
// produce no diagnostics.
func UnmarkedAllocates(n int) []byte {
	return make([]byte, n)
}

//lint:hotpath
func SuppressedMake(n int) int {
	buf := make([]byte, n) //lint:alloc fixture exercises the escape hatch
	return len(buf)
}
