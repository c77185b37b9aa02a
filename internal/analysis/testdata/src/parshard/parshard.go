// Package parshard exercises the parshard analyzer: unsynchronized
// unbuffered-channel sends inside spawned worker closures are flagged;
// buffered channels and receive synchronization are allowed.
package parshard

// BadUnbufferedSend fires-and-forgets a send on an unbuffered channel with
// no receive and no WaitGroup: flagged.
func BadUnbufferedSend(n int) {
	done := make(chan int)
	go func(k int) {
		done <- k // want "sends on unbuffered channel done"
	}(n)
}

// GoodBufferedSend buffers the results channel to the worker count:
// allowed.
func GoodBufferedSend(parts []int) int {
	results := make(chan int, len(parts))
	for p, v := range parts {
		go func(part, val int) {
			results <- val * part
		}(p, v)
	}
	total := 0
	for range parts {
		total += <-results
	}
	return total
}

// GoodReceivedSend sends on an unbuffered channel that the spawning
// function receives from: allowed.
func GoodReceivedSend(n int) int {
	out := make(chan int)
	go func(k int) {
		out <- k * 2
	}(n)
	return <-out
}

// AnnotatedExternalSync documents synchronization owned elsewhere: allowed.
func AnnotatedExternalSync(n int, sink chan<- int) {
	local := make(chan int)
	go forward(local, sink)
	go func(k int) {
		local <- k //lint:unsync forward goroutine drains local
	}(n)
}

func forward(in <-chan int, out chan<- int) {
	for v := range in {
		out <- v
	}
}
