package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// workload is one traffic mix and the fleet it runs against. The names are
// fixed (BENCHMARK.json and later issues refer to them); README.md records
// why each was chosen and what it is predicted not to move.
type workload struct {
	name     string
	dataset  string // bundle: "digits" (K=4 × MLP-2) or "objects" (K=2 × SS-14)
	features int    // input width of the bundle's experts
	rows     int    // rows per request
	zipf     bool   // rows drawn Zipf(1.1, 1) over zipfKeys; otherwise never repeated
	fabric   bool   // front gateway → fabric → master, nodes behind a 2 ms chaos link
	nodes    int    // teamnet-node processes; the master runs expert 0 itself
	// segment is the stretch of a window one value of each end-to-end metric
	// is computed over: the fewest whole seconds in which the workload
	// completes 200 requests on the sizing host, so that p95 has ten samples
	// beyond it.
	segment time.Duration
	// gemm is the m×k×n of the expert's largest GEMM as the snapshot runs
	// it for one request: the 784→64 dense layer of MLP-2, and the
	// transposed im2col product (OutC × PatchLen × spatial) of SS-14's
	// 12-channel 3×3 convolutions at 32×32.
	gemm [3]int
}

var workloads = []workload{
	{name: "edge_single", dataset: "digits", features: 784, rows: 1, fabric: true, nodes: 3, segment: 2 * time.Second, gemm: [3]int{1, 784, 64}},
	{name: "batch16", dataset: "digits", features: 784, rows: 16, nodes: 3, segment: 2 * time.Second, gemm: [3]int{16, 784, 64}},
	{name: "zipf_hot", dataset: "digits", features: 784, rows: 1, zipf: true, nodes: 3, segment: time.Second, gemm: [3]int{1, 784, 64}},
	{name: "objects_single", dataset: "objects", features: 3072, rows: 1, nodes: 1, segment: 4 * time.Second, gemm: [3]int{12, 108, 1024}},
}

func workloadByName(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// zipfKeys is zipf_hot's key space: twice the gateway's default cache
// (-cache-size 4096), so the working set cannot simply move into it.
const zipfKeys = 8192

// Inputs are a pure function of (seed, row id): pixel values k/255 printed
// with four decimals, k drawn from a splitmix64 stream keyed by both. Bodies
// are assembled from the 256 pre-rendered strings, so the timed window does
// no float formatting, and the oracle and probes rebuild any row from its
// id alone.
var (
	pixelText  [256]string
	pixelValue [256]float64
)

func init() {
	for k := range pixelText {
		pixelText[k] = strconv.FormatFloat(float64(k)/255, 'f', 4, 64)
		// The value the gateway will parse, not k/255 itself.
		pixelValue[k], _ = strconv.ParseFloat(pixelText[k], 64)
	}
}

func splitmix(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rowPixels fills dst with row id's pixels under seed.
func rowPixels(dst []byte, seed int64, id uint64) {
	state := uint64(seed)
	state = splitmix(&state) ^ id
	for i := 0; i < len(dst); i += 8 {
		v := splitmix(&state)
		for j := i; j < i+8 && j < len(dst); j++ {
			dst[j] = byte(v)
			v >>= 8
		}
	}
}

// rowValues fills dst, row-major, with the float64 features of rows id,
// id+1, …, exactly as the gateway parses them from the rendered body.
func rowValues(dst []float64, seed int64, id uint64, features int) {
	px := make([]byte, features)
	for r := 0; r*features < len(dst); r++ {
		rowPixels(px, seed, id+uint64(r))
		for i, k := range px {
			dst[r*features+i] = pixelValue[k]
		}
	}
}

// appendBody renders the /predict JSON body for rows id … id+rows-1. px is
// scratch of the row width.
func appendBody(buf []byte, px []byte, seed int64, id uint64, rows int) []byte {
	buf = append(buf, `{"x":[`...)
	for r := 0; r < rows; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		rowPixels(px, seed, id+uint64(r))
		buf = append(buf, '[')
		for i, k := range px {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, pixelText[k]...)
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...)
}

// Row ids. Zipf draws use 0 … zipfKeys-1; every other request takes a fresh
// run of ids from its own (round, client) block, so no tensor is ever sent
// twice within a fleet's lifetime and hit_share must be exactly 0.
const freshBit = 1 << 62

func freshID(round, client, seq, rows int) uint64 {
	return freshBit | uint64(round)<<48 | uint64(client)<<40 | uint64(seq*rows)
}

// readyID is the row block of the readiness request that ends set-up.
func readyID(round int) uint64 { return 1<<63 | uint64(round)<<48 }

// idStream returns the generator of one client's request ids for one round.
func idStream(wl workload, seed int64, round, client int) func() uint64 {
	if !wl.zipf {
		seq := 0
		return func() uint64 {
			seq++
			return freshID(round, client, seq-1, wl.rows)
		}
	}
	state := uint64(seed)
	state = splitmix(&state) ^ freshID(round, client, 0, 1)
	src := rand.New(rand.NewSource(int64(splitmix(&state))))
	return rand.NewZipf(src, 1.1, 1, zipfKeys-1).Uint64
}
