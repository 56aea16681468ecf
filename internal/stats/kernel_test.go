package stats

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
	"testing"

	"resilience/internal/rng"
)

// refKendallTau is the quadratic pair-comparison definition KendallTau
// replaced; the merge-sort kernel must reproduce its bits.
func refKendallTau(xs []float64) (float64, error) {
	n := len(xs)
	if n < 2 {
		return 0, ErrInsufficientData
	}
	var concordant, discordant int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case xs[j] > xs[i]:
				concordant++
			case xs[j] < xs[i]:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// refQuantile is the sort-then-interpolate Quantile that selection
// replaced.
func refQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

var negZero = math.Copysign(0, -1)

// kernelInputs returns seeded samples covering the shapes the kernels
// special-case: ties, NaN, ±0, ±Inf, all-equal values, sorted and
// reversed runs, and lengths around the merge sort's run size.
func kernelInputs() [][]float64 {
	in := [][]float64{
		nil,
		{},
		{1},
		{math.NaN()},
		{2, 1},
		{1, 1},
		{math.NaN(), math.NaN()},
		{0, negZero, 0, negZero},
		{negZero, 1, 0, -1},
		{3, 3, 3, 3, 3, 3, 3},
		{1, math.NaN(), 2, math.NaN(), 0},
		{math.Inf(1), math.Inf(-1), 0, math.Inf(1), 5},
		{5, 4, 3, 2, 1},
		{1, 2, 3, 4, 5},
	}
	r := rng.New(7)
	for _, n := range []int{2, 3, 15, 16, 17, 31, 32, 33, 64, 100, 257, 1000, 4099} {
		uniform := make([]float64, n)
		ties := make([]float64, n)
		mixed := make([]float64, n)
		asc := make([]float64, n)
		desc := make([]float64, n)
		for i := 0; i < n; i++ {
			uniform[i] = r.Norm(0, 1)
			ties[i] = float64(r.Intn(5))
			switch r.Intn(6) {
			case 0:
				mixed[i] = math.NaN()
			case 1:
				mixed[i] = negZero
			case 2:
				mixed[i] = 0
			default:
				mixed[i] = float64(r.Intn(9)) - 4
			}
			asc[i] = float64(i / 3)
			desc[i] = float64(n - i)
		}
		in = append(in, uniform, ties, mixed, asc, desc)
	}
	return in
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestKendallTauMatchesQuadratic(t *testing.T) {
	var k Kendall // one scratch across inputs of every size
	for i, xs := range kernelInputs() {
		want, wantErr := refKendallTau(xs)
		got, err := KendallTau(xs)
		reused, rerr := k.Tau(xs)
		if !errors.Is(err, wantErr) || !errors.Is(rerr, wantErr) {
			t.Fatalf("input %d (n=%d): err %v / %v, want %v", i, len(xs), err, rerr, wantErr)
		}
		if !sameBits(got, want) || !sameBits(reused, want) {
			t.Fatalf("input %d (n=%d): tau %v / %v, want %v", i, len(xs), got, reused, want)
		}
	}
}

func TestKendallTauLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, math.NaN(), 2}
	if _, err := KendallTau(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || !math.IsNaN(xs[2]) || xs[3] != 2 {
		t.Fatalf("KendallTau mutated its input: %v", xs)
	}
}

func TestKendallTauReusesScratch(t *testing.T) {
	xs := make([]float64, 500)
	r := rng.New(3)
	for i := range xs {
		xs[i] = r.Float64()
	}
	var k Kendall
	if _, err := k.Tau(xs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := k.Tau(xs[:300]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Kendall.Tau with a warm scratch allocated %v times per call", allocs)
	}
}

var quantileQs = []float64{-1, 0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1, 2}

func TestQuantileMatchesSort(t *testing.T) {
	for i, xs := range kernelInputs() {
		for _, q := range quantileQs {
			want := refQuantile(xs, q)
			got := Quantile(xs, q)
			own := append([]float64(nil), xs...)
			inPlace := QuantileInPlace(own, q)
			if !sameBits(got, want) || !sameBits(inPlace, want) {
				t.Fatalf("input %d (n=%d) q=%v: got %v / %v, want %v", i, len(xs), q, got, inPlace, want)
			}
		}
	}
}

func TestQuantileInPlaceKeepsMultiset(t *testing.T) {
	r := rng.New(11)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(r.Intn(50))
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	QuantileInPlace(xs, 0.95)
	sort.Float64s(xs)
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("QuantileInPlace lost or invented values at %d: %v vs %v", i, xs[i], want[i])
		}
	}
}

func TestSelectKthAdversarialFallsBack(t *testing.T) {
	// Organ-pipe input pins the median-of-three pivot near one end; the
	// round budget must still end in a correct selection.
	n := 4096
	xs := make([]float64, n)
	for i := range xs {
		if i < n/2 {
			xs[i] = float64(i)
		} else {
			xs[i] = float64(n - i)
		}
	}
	for _, q := range quantileQs {
		if got, want := Quantile(xs, q), refQuantile(xs, q); !sameBits(got, want) {
			t.Fatalf("q=%v: got %v, want %v", q, got, want)
		}
	}
}

// fuzzFloats decodes fuzz bytes into float64s, eight bytes each, so the
// corpus reaches NaN payloads, ±0, ±Inf and subnormals.
func fuzzFloats(data []byte) []float64 {
	xs := make([]float64, len(data)/8)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return xs
}

func fuzzSeed(xs ...float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func FuzzKendallTau(f *testing.F) {
	f.Add(fuzzSeed(1, 2, 3))
	f.Add(fuzzSeed(3, 3, 1, math.NaN(), negZero, 0))
	f.Add(fuzzSeed(math.Inf(1), 2, math.Inf(-1), 2, 2))
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzFloats(data)
		want, wantErr := refKendallTau(xs)
		got, err := KendallTau(xs)
		if !errors.Is(err, wantErr) || !sameBits(got, want) {
			t.Fatalf("KendallTau(%v) = %v, %v; quadratic reference %v, %v", xs, got, err, want, wantErr)
		}
	})
}

func FuzzQuantile(f *testing.F) {
	f.Add(fuzzSeed(1, 2, 3), 0.5)
	f.Add(fuzzSeed(0, negZero, 0, 1), 0.25)
	f.Add(fuzzSeed(math.NaN(), 2, 1), 0.95)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if math.IsNaN(q) {
			t.Skip("a NaN q indexes out of range in both versions")
		}
		xs := fuzzFloats(data)
		if got, want := Quantile(xs, q), refQuantile(xs, q); !sameBits(got, want) {
			t.Fatalf("Quantile(%v, %v) = %v; sort reference %v", xs, q, got, want)
		}
	})
}
