package main

import (
	"cmp"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// probeNominalMS is the CPU time, in ms, of one timed pass of the host
// probe's job on the reference host. The end-to-end times of sweep and
// compile are scaled to that host: a run whose probe passes take twice
// as long reports its operations at half their measured CPU time.
const probeNominalMS = 10.0

// probeEvery is how much CPU time passes between probe samples.
const probeEvery = time.Second / 2

// hostProbe measures how fast the host runs a fixed job at the moment.
// On a shared host the same operations took 60% more CPU time in one
// stretch of minutes than in the next (other guests contend for the
// core's sibling thread, caches and memory bandwidth), so a run's CPU
// times follow the host as much as the program. The probe's job is
// pure Go on buffers mapped once outside the Go heap, so nothing the
// program does changes its work: no allocation, no collection. It mixes what the operations do:
// pointer chasing in a search tree, hashing, a set-associative LRU
// lookup loop, sorting, a bytecode dispatch loop, and random reads from
// a 4 MB buffer.
type hostProbe struct {
	last    time.Duration
	samples []float64 // ms per timed pass

	keys        []uint64
	left, right []int32
	table       []uint64
	recs        []probeRec
	far         []uint64
	sink        uint64
}

type probeRec struct{ a, b uint64 }

// newHostProbe maps the probe's buffers outside the Go heap, so that they
// do not raise the collector's heap target for the operations around
// them. They stay mapped until the process exits and add about 4.5 MB
// to its peak resident set.
func newHostProbe() (*hostProbe, error) {
	const n = 8192
	p := &hostProbe{}
	var err error
	if p.keys, err = mapped[uint64](n); err != nil {
		return nil, err
	}
	if p.left, err = mapped[int32](n); err != nil {
		return nil, err
	}
	if p.right, err = mapped[int32](n); err != nil {
		return nil, err
	}
	if p.table, err = mapped[uint64](2 * n); err != nil {
		return nil, err
	}
	if p.recs, err = mapped[probeRec](n); err != nil {
		return nil, err
	}
	if p.far, err = mapped[uint64](1 << 19); err != nil { // 4 MB
		return nil, err
	}
	for i := range p.far { // written, so its pages are real memory
		p.far[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	return p, nil
}

// mapped returns n zeroed values of T in fresh anonymous memory.
func mapped[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(b))), n), nil
}

// tick takes a sample when probeEvery of CPU time has passed since the
// last one. It is called between operations, outside their timing; a
// nil probe does nothing.
func (p *hostProbe) tick() {
	if p == nil {
		return
	}
	if now := selfCPU(); p.last != 0 && now-p.last < probeEvery {
		return
	}
	p.job() // warm the buffers the operation before evicted
	c := selfCPU()
	p.job()
	p.samples = append(p.samples, ms(selfCPU()-c))
	p.last = selfCPU()
}

// factor is the nominal probe time over the run's median probe time:
// multiply a measured CPU time by it to get the reference host's.
func (p *hostProbe) factor() float64 {
	if p == nil || len(p.samples) == 0 {
		return 1
	}
	return probeNominalMS / median(p.samples)
}

// job is the probe's fixed work. Every pass does exactly the same.
func (p *hostProbe) job() {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// A binary search tree over index arrays.
	n := int32(len(p.keys))
	for i := range p.keys {
		p.keys[i], p.left[i], p.right[i] = next(), -1, -1
	}
	for i := int32(1); i < n; i++ {
		at := int32(0)
		for {
			side := &p.right[at]
			if p.keys[i] < p.keys[at] {
				side = &p.left[at]
			}
			if *side < 0 {
				*side = i
				break
			}
			at = *side
		}
	}
	for i := int32(0); i < n; i++ { // look every key up again
		at := int32(0)
		for at >= 0 && p.keys[at] != p.keys[i] {
			if p.keys[i] < p.keys[at] {
				at = p.left[at]
			} else {
				at = p.right[at]
			}
		}
		p.sink += uint64(at)
	}
	// An open-addressing hash table, half full.
	clear(p.table)
	mask := uint64(len(p.table) - 1)
	for i := 0; i < len(p.table)/2; i++ {
		k := next()%uint64(len(p.table)) + 1
		h := (k * 0x9e3779b97f4a7c15) >> 40
		for p.table[h&mask] != 0 && p.table[h&mask] != k {
			h++
		}
		p.table[h&mask] = k
	}
	// A set-associative LRU lookup loop, as in a cache simulator.
	const sets, ways = 64, 8
	var tags, stamps [sets][ways]int64
	for t := int64(1); t <= 100000; t++ {
		line := (t * 3) % 1024
		if t%4 == 0 {
			line = int64(next() % 4096)
		}
		s, tag := line%sets, line/sets+1
		lru, hit := 0, false
		for w := 0; w < ways; w++ {
			if tags[s][w] == tag {
				stamps[s][w], hit = t, true
				break
			}
			if stamps[s][w] < stamps[s][lru] {
				lru = w
			}
		}
		if !hit {
			tags[s][lru], stamps[s][lru] = tag, t
			p.sink++
		}
	}
	// Sorting records.
	for i := range p.recs {
		p.recs[i] = probeRec{next() % 1000, next()}
	}
	slices.SortFunc(p.recs, func(a, b probeRec) int {
		if c := cmp.Compare(a.a, b.a); c != 0 {
			return c
		}
		return cmp.Compare(a.b, b.b)
	})
	p.sink += p.recs[n/2].b
	// A bytecode dispatch loop.
	prog := [...]byte{0, 1, 2, 0, 3, 1, 2, 3, 0, 2}
	acc, r := uint64(1), uint64(3)
	for i := 0; i < 150000; i++ {
		switch prog[i%len(prog)] {
		case 0:
			acc += r
		case 1:
			r = r*31 + acc
		case 2:
			acc ^= r >> 3
		case 3:
			if acc&1 == 0 {
				r++
			}
		}
	}
	p.sink += acc
	// Random reads from the 4 MB buffer.
	fm := uint64(len(p.far) - 1)
	for i := 0; i < 60000; i++ {
		p.sink += p.far[next()&fm]
	}
}
