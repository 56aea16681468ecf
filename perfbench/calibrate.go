package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"hash"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// hostSpeed measures how fast the shared host is running the benchmark
// while it runs, so that the timings it reports do not follow the host.
//
// On a small VM whose processors are shared with neighbours, the same
// code ran a third slower in one run than in the next: every timing,
// wall-clock or per CPU-second (steal time is charged to the process
// that was descheduled), moved with the host, not the program. So each
// workload pauses between stretches of its timed phase, lets the
// program go idle, and times a fixed reference job that uses none of
// the program's code on nproc goroutines. The job's time around a
// stretch, against its time on the reference VM, is the host's
// slowdown factor there (over), and every timing taken in the stretch
// is divided by it, every rate multiplied: figures are "as on the
// reference VM". Set-up times take the nearest sample's factor and
// per-CPU-second rates the whole run's CPU factor. A run prints its
// factors beside the result.
type hostSpeed struct {
	file string    // a small file the reference job reads
	wall []float64 // per sample: seconds a reference job took on its goroutine, mean over goroutines
	cpu  []float64 // per sample: process CPU seconds per reference job
}

func newHostSpeed(dir string) (*hostSpeed, error) {
	f, err := os.CreateTemp(dir, "hostspeed-")
	if err != nil {
		return nil, err
	}
	_, err = f.Write(make([]byte, refFileSize))
	return &hostSpeed{file: f.Name()}, errors.Join(err, f.Close())
}

// Reference-job times on the reference VM (2 vCPUs, Go 1.24): the
// medians of wall and cpu there. A host running at that speed
// gets factor 1.
const (
	refWall = 0.0310
	refCPU  = 0.0310
)

// The reference job's size: about 40ms on the reference VM.
const (
	refRounds   = 120
	refReads    = 4
	refFileSize = 4096
)

// sample times one reference job per goroutine while nothing else
// runs. Each goroutine times its own job from when it starts, so a
// goroutine the Go scheduler starts late does not read as a slow host,
// while two goroutines sharing one processor do. A collection first
// leaves every sample the same heap to start from; the job itself
// allocates little once its buffers exist.
func (h *hostSpeed) sample() {
	runtime.GC()
	jobs := make([]*refJob, nproc())
	for w := range jobs {
		jobs[w] = newRefJob(uint64(w), h.file)
	}
	took := make([]float64, len(jobs))
	cpu0 := cpuSeconds()
	var wg sync.WaitGroup
	for w, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			j.run()
			took[w] = time.Since(start).Seconds()
		}()
	}
	wg.Wait()
	h.wall = append(h.wall, mean(took))
	h.cpu = append(h.cpu, (cpuSeconds()-cpu0)/float64(len(jobs)))
}

// refJob is the reference work: sorting, map updates, hashing and
// small file reads, the mix of computing and system calls the
// program's request paths are made of, in code of the standard library
// only, so no change to the program can move it.
type refJob struct {
	r    *rand.Rand
	xs   []float64
	m    map[uint64]uint64
	h    hash.Hash
	buf  [8]byte
	sum  []byte
	file string
	rd   []byte
	acc  uint64
}

func newRefJob(seed uint64, file string) *refJob {
	return &refJob{
		r:    rand.New(rand.NewSource(int64(seed))),
		xs:   make([]float64, 2048),
		m:    make(map[uint64]uint64, 256),
		h:    sha256.New(),
		sum:  make([]byte, 0, sha256.Size),
		file: file,
		rd:   make([]byte, refFileSize),
	}
}

func (j *refJob) run() {
	for round := 0; round < refRounds; round++ {
		for i := range j.xs {
			j.xs[i] = j.r.Float64()
		}
		sort.Float64s(j.xs)
		clear(j.m)
		for i := 0; i < 512; i++ {
			j.m[uint64(j.r.Intn(128))] += uint64(i)
		}
		j.h.Reset()
		for k, v := range j.m {
			binary.LittleEndian.PutUint64(j.buf[:], k^v)
			j.h.Write(j.buf[:])
		}
		j.sum = j.h.Sum(j.sum[:0])
		j.acc += binary.LittleEndian.Uint64(j.sum) ^ uint64(j.xs[len(j.xs)/2]*1e9)
		for i := 0; i < refReads; i++ {
			if f, err := os.Open(j.file); err == nil {
				n, _ := f.Read(j.rd)
				f.Close()
				j.acc += uint64(n)
			}
		}
	}
}

// at is the slowdown factor sample i measured.
func (h *hostSpeed) at(i int) float64 { return h.wall[i] / refWall }

// last is the index of the latest sample.
func (h *hostSpeed) last() int { return len(h.wall) - 1 }

// over is the host's slowdown factor over the stretch between samples
// i and j: timings made in that stretch are divided by it, rates
// multiplied. It is the faster of the two samples, so a disturbance
// that caught one sample but not the stretch does not count; a slow
// spell that lasts the stretch catches both.
func (h *hostSpeed) over(i, j int) float64 { return min(h.wall[i], h.wall[j]) / refWall }

// paceSamples is how many host-speed samples set an open-loop pace.
const paceSamples = 5

// pace samples the host's speed and returns the factor an open-loop
// workload scales its arrival rates by, at most max: on a host running
// at half the reference speed, half the rate. A queue's waits grow
// faster than its load, so at fixed rates a slower host would not just
// slow every request (which normalize undoes) but also queue them
// more; paced, the program gets the same share of the host's capacity
// on every run.
func (h *hostSpeed) pace(max float64) float64 {
	for i := 0; i < paceSamples; i++ {
		h.sample()
	}
	return min(1/h.wallFactor(), max)
}

// wallFactor is the host's wall-clock slowdown against the reference
// VM over the whole run: 2 means the reference job took twice as long.
func (h *hostSpeed) wallFactor() float64 { return median(h.wall) / refWall }

// cpuFactor is the same for CPU time, for rates per CPU second.
func (h *hostSpeed) cpuFactor() float64 { return median(h.cpu) / refCPU }

// sortedCopy is xs sorted, for printing.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
