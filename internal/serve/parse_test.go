package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// renderBody renders a rows × width /predict body of four-decimal pixel
// values, the shape of body the repository's benchmark sends.
func renderBody(rows, width int) []byte {
	rng := rand.New(rand.NewSource(int64(rows*100003 + width)))
	buf := []byte(`{"x":[`)
	for r := 0; r < rows; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '[')
		for c := 0; c < width; c++ {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendFloat(buf, float64(rng.Intn(256))/255, 'f', 4, 64)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// TestParsePredictNumbers holds the scanner's number conversion to
// strconv.ParseFloat's bits (by way of the reference decoder) on random
// numbers in every spelling JSON allows: shortest and fixed renderings of
// random bit patterns, digit strings longer than a uint64, exponents around
// the ±22 edge of the exact path, and the float64 range's two ends.
func TestParsePredictNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		return string(b)
	}
	number := func() string {
		f := math.Float64frombits(rng.Uint64())
		for math.IsNaN(f) || math.IsInf(f, 0) {
			f = math.Float64frombits(rng.Uint64())
		}
		switch rng.Intn(8) {
		case 0:
			return strconv.FormatFloat(f, 'g', -1, 64)
		case 1:
			return strconv.FormatFloat(f, 'e', rng.Intn(25), 64)
		case 2:
			return strconv.FormatFloat(rng.NormFloat64()*1e3, 'f', rng.Intn(20), 64)
		case 3:
			return strconv.FormatFloat(float64(rng.Intn(256))/255, 'f', 4, 64)
		case 4: // mantissas around 2^53 and 2^64, exponents around ±22
			return strconv.FormatUint(rng.Uint64()>>uint(rng.Intn(14)), 10) + "e" + strconv.Itoa(rng.Intn(50)-25)
		case 5:
			return "-"[:rng.Intn(2)] + strconv.Itoa(rng.Intn(10)) + "." + digits(1+rng.Intn(30)) + "E" + "+-"[rng.Intn(2):][:1] + strconv.Itoa(rng.Intn(330))
		case 6:
			return strconv.Itoa(1+rng.Intn(9)) + digits(rng.Intn(30)) + "." + digits(1+rng.Intn(30))
		default:
			return "0." + strings.Repeat("0", rng.Intn(25)) + digits(1+rng.Intn(22)) + "e" + strconv.Itoa(rng.Intn(60)-30)
		}
	}
	for i := 0; i < 20000; i++ {
		diffParsePredict(t, fmt.Sprintf(`{"x":[[%s,%s],[%s,%s]]}`, number(), number(), number(), number()), 8)
	}
}

// TestScanNumberStopsWhereTheTokenDoes pins scanNumber's own contract, the
// part the body-level tests cannot see: how far it reads.
func TestScanNumberStopsWhereTheTokenDoes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		n    int
		err  error
		want float64
	}{
		{"0", 1, nil, 0},
		{"01", 1, nil, 0},
		{"-0,", 2, nil, math.Copysign(0, -1)},
		{"12.50]", 5, nil, 12.5},
		{"1e2e3", 3, nil, 100},
		{"1.5.5", 3, nil, 1.5},
		{"1-2", 1, nil, 1},
		{"", 0, errNumberSyntax, 0},
		{"-", 1, errNumberSyntax, 0},
		{"-x", 1, errNumberSyntax, 0},
		{"1.", 2, errNumberSyntax, 0},
		{"1.x", 2, errNumberSyntax, 0},
		{"1e", 2, errNumberSyntax, 0},
		{"1e+", 3, errNumberSyntax, 0},
		{"1e999,", 5, errNumberRange, 0},
	} {
		f, n, err := scanNumber([]byte(tc.in))
		if n != tc.n || err != tc.err || math.Float64bits(f) != math.Float64bits(tc.want) {
			t.Errorf("scanNumber(%q) = %v, %d, %v; want %v, %d, %v", tc.in, f, n, err, tc.want, tc.n, tc.err)
		}
	}
}

// budgetReader serves a body and fails the test if it is asked for more
// once the bytes it has handed out pass limit.
type budgetReader struct {
	t     *testing.T
	body  []byte
	off   int
	limit int
}

func (r *budgetReader) Read(p []byte) (int, error) {
	if r.off > r.limit {
		r.t.Fatalf("read at offset %d, past the %d bytes the verdict needed", r.off, r.limit)
	}
	if r.off == len(r.body) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 512)], r.body[r.off:])
	r.off += n
	return n, nil
}

// TestParsePredictStopsAtRowBudget pins the in-scan row budget: a body of
// 10 000 rows is refused at row maxRows+1, and the bytes after it are never
// read, let alone decoded.
func TestParsePredictStopsAtRowBudget(t *testing.T) {
	const maxRows = 16
	row := "[" + strings.TrimSuffix(strings.Repeat("0.5020,", 64), ",") + "]"
	body := []byte(`{"x":[` + strings.TrimSuffix(strings.Repeat(row+",", 10000), ",") + `]}`)
	need := len(`{"x":[`) + (maxRows+1)*(len(row)+1)
	r := &budgetReader{t: t, body: body, limit: need + 2048}
	_, _, _, err := ParsePredict(r, maxRows)
	if err == nil || !strings.Contains(err.Error(), "more than 16 rows") {
		t.Fatalf("err = %v, want the row-budget verdict", err)
	}
	if r.off < need-len(row) {
		t.Fatalf("verdict after %d bytes, before row %d began at %d", r.off, maxRows+1, need-len(row))
	}
}

// TestParsePredictPoolHygiene pins the scratch pool's two promises: a large
// request's buffers are dropped rather than pooled, and a returned tensor
// owns its data — parsing the next request cannot change it.
func TestParsePredictPoolHygiene(t *testing.T) {
	big := renderBody(64, 3072) // ~1.3 MiB of body, 1.5 MiB of values
	if len(big) <= maxPooledScratch {
		t.Fatalf("big body is only %d bytes", len(big))
	}
	first, _, _, err := ParsePredict(bytes.NewReader(big), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := parsePredictReference(bytes.NewReader(big), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &bodyScanner{r: bytes.NewReader(big)}
	if err := s.scan(0); err != nil {
		t.Fatal(err)
	}
	if s.reset(); s.buf != nil || s.vals != nil {
		t.Fatalf("reset kept %d body bytes and %d values for the pool", cap(s.buf), cap(s.vals))
	}
	s.r = bytes.NewReader(renderBody(16, 784))
	if err := s.scan(16); err != nil {
		t.Fatal(err)
	}
	if s.reset(); cap(s.buf) == 0 || cap(s.vals) == 0 || len(s.buf) != 0 || s.r != nil || s.rows != 0 {
		t.Fatalf("reset after an ordinary body left %+v", s)
	}
	small, _, _, err := ParsePredict(strings.NewReader(`{"x":[[9,8,7],[6,5,4]]}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(small.Data, []float64{9, 8, 7, 6, 5, 4}) {
		t.Fatalf("small body decoded to %v", small.Data)
	}
	if !sameBits(first.Data, want.Data) {
		t.Fatal("the first tensor changed when a later body was parsed")
	}
	small.Data[0] = -1 // and the other way round
	again, _, _, _ := ParsePredict(strings.NewReader(`{"x":[[9,8,7],[6,5,4]]}`), 0)
	if again.Data[0] != 9 {
		t.Fatalf("a caller's write to its tensor reached a later parse: %v", again.Data)
	}
}

// TestParsePredictAllocs gates the per-request allocation count on a full
// batch: the tensor, its shape, its data, and what the pool and the reader
// cost — not one per row, let alone per number.
func TestParsePredictAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops Puts under -race")
	}
	body := renderBody(16, 784)
	r := bytes.NewReader(body)
	allocs := testing.AllocsPerRun(50, func() {
		r.Reset(body)
		if _, _, _, err := ParsePredict(r, 16); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("%v allocations per 16 x 784 body, want at most 6", allocs)
	}
}

// BenchmarkParsePredict reports decode throughput on the three body shapes
// the repository's benchmark sends: go test -bench ParsePredict ./internal/serve.
func BenchmarkParsePredict(b *testing.B) {
	for _, shape := range [][2]int{{1, 784}, {16, 784}, {1, 3072}} {
		body := renderBody(shape[0], shape[1])
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			r := bytes.NewReader(body)
			for i := 0; i < b.N; i++ {
				r.Reset(body)
				if _, _, _, err := ParsePredict(r, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
