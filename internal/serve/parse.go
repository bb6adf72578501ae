package serve

// Request decoding. A /predict body is almost entirely numbers — 12 544 of
// them on a full 16 × 784 batch — so it is scanned by hand, once, as it is
// read: no reflection, no intermediate [][]float64, no syntax pre-pass. The
// scanner accepts exactly the JSON grammar (RFC 8259), matches the three
// field names the way encoding/json did (case-folded, last one wins) and
// converts numbers on the exact path strconv itself takes first, so every
// decoded value is bit-identical to strconv.ParseFloat's (DESIGN.md §9).
// The reference it is fuzzed against lives in parse_reference_test.go.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"github.com/teamnet/teamnet/internal/tensor"
)

// maxPooledScratch is the most body bytes, and the most scanned-value bytes,
// a scanner keeps between requests. One 8 MiB body must not pin 8 MiB (and
// its 32 MiB of values) in the pool for the life of the process.
const maxPooledScratch = 1 << 20

// bodyScanner reads and decodes one request body. It pulls from r only when
// the scan runs out of buffered bytes, so a verdict reached early (the row
// budget, a syntax error) leaves the rest of the body unread.
type bodyScanner struct {
	r    io.Reader
	buf  []byte    // the body as read so far
	pos  int       // next unscanned byte of buf
	done bool      // r has returned an error, io.EOF included
	rerr error     // that error, unless it was io.EOF
	vals []float64 // x as scanned, row-major

	rows, width int
	timeoutMS   int64
	priority    string
}

var scannerPool = sync.Pool{New: func() any { return new(bodyScanner) }}

// ParsePredict decodes and validates the JSON body of POST /predict,
//
//	{"x": [[f, ...], ...], "timeout_ms": n, "priority": "normal"|"high"}
//
// into the input tensor (which owns its data), the admission options and
// the request's own timeout (zero defers to the gateway). Only x is
// required: one or more rows of one shared, non-zero width. It rejects —
// with an error safe to echo to the client — anything that is not a single
// JSON object of those fields, ragged or empty rows, numbers float64 cannot
// hold (NaN and ±Inf have no JSON spelling, so nothing non-finite gets in),
// a negative or fractional timeout_ms and an unknown priority. null is
// tolerated where encoding/json tolerated it: a null feature is 0, a null
// row is an empty row, a null x is no x, and a null timeout_ms or priority
// leaves the field as it was. maxRows bounds the row count (the gateway's
// MaxBatch) and is enforced as rows are scanned: row maxRows+1 ends the
// request without reading further. A failed read of body is returned
// wrapped, so the caller can tell an over-long body from a malformed one.
func ParsePredict(body io.Reader, maxRows int) (*tensor.Tensor, Options, time.Duration, error) {
	s := scannerPool.Get().(*bodyScanner)
	defer func() {
		s.reset()
		scannerPool.Put(s)
	}()
	s.r = body
	err := s.scan(maxRows)
	if s.rerr != nil {
		// Whatever the scan made of a body cut short, the read failure is
		// the verdict.
		err = fmt.Errorf("bad request body: %w", s.rerr)
	}
	if err != nil {
		return nil, Options{}, 0, err
	}
	var opts Options
	if s.priority == "high" {
		opts.Priority = PriorityHigh
	}
	x := &tensor.Tensor{Data: slices.Clone(s.vals), Shape: []int{s.rows, s.width}}
	return x, opts, time.Duration(s.timeoutMS) * time.Millisecond, nil
}

// reset readies the scanner for the pool: everything of the request gone,
// the scratch kept unless this request grew it past maxPooledScratch.
func (s *bodyScanner) reset() {
	buf, vals := s.buf[:0], s.vals[:0]
	if cap(buf) > maxPooledScratch {
		buf = nil
	}
	if cap(vals)*8 > maxPooledScratch {
		vals = nil
	}
	*s = bodyScanner{buf: buf, vals: vals}
}

// scan decodes the whole body into s and applies the checks that need all
// of it. Shape checks on x happen in x, as its rows go by.
func (s *bodyScanner) scan(maxRows int) error {
	var err error
	switch s.next() {
	case '{':
		err = s.object(maxRows)
	case 'n': // a top-level null is an object with no fields
		err = s.null()
	default:
		err = s.syntaxErr("a JSON object")
	}
	if err != nil {
		return err
	}
	if s.next() != 0 || s.pos < len(s.buf) {
		return errors.New("bad request body: trailing data after JSON object")
	}
	if s.rows == 0 {
		return errors.New("x must contain at least one row")
	}
	if s.timeoutMS < 0 {
		return errors.New("timeout_ms must be non-negative")
	}
	if s.timeoutMS > maxTimeoutMS {
		return fmt.Errorf("timeout_ms must be at most %d", maxTimeoutMS)
	}
	switch s.priority {
	case "", "normal", "high":
		return nil
	}
	return fmt.Errorf("unknown priority %q (want \"normal\" or \"high\")", s.priority)
}

// fill reads more of the body behind buf and reports whether any arrived.
func (s *bodyScanner) fill() bool {
	for !s.done {
		if len(s.buf) == cap(s.buf) {
			s.buf = slices.Grow(s.buf, 4096)
		}
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		if err != nil {
			s.done = true
			if err != io.EOF {
				s.rerr = err
			}
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// more reports whether buf[pos] exists, reading on if it has to.
func (s *bodyScanner) more() bool { return s.pos < len(s.buf) || s.fill() }

// next skips whitespace and returns the byte at pos without consuming it,
// or 0 at the end of the body. No caller accepts a 0, so a literal NUL in
// the body fails the same way; syntaxErr tells the two apart. The common
// case — a buffered byte that is not whitespace — is small enough to inline.
func (s *bodyScanner) next() byte {
	if s.pos < len(s.buf) && s.buf[s.pos] > ' ' {
		return s.buf[s.pos]
	}
	return s.skipSpace()
}

func (s *bodyScanner) skipSpace() byte {
	for s.more() {
		switch c := s.buf[s.pos]; c {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return c
		}
	}
	return 0
}

// syntaxErr reports that the byte at pos cannot start or continue what the
// grammar (or a field's type) wants there.
func (s *bodyScanner) syntaxErr(want string) error {
	if s.pos >= len(s.buf) {
		return fmt.Errorf("bad request body: unexpected end of input, want %s", want)
	}
	return fmt.Errorf("bad request body: offset %d: want %s, got %q", s.pos, want, s.buf[s.pos])
}

// object scans the request object from its '{' and stores its fields.
func (s *bodyScanner) object(maxRows int) error {
	s.pos++
	if s.next() == '}' {
		s.pos++
		return nil
	}
	for {
		if s.next() != '"' {
			return s.syntaxErr("a field name")
		}
		key, err := s.str()
		if err != nil {
			return err
		}
		if s.next() != ':' {
			return s.syntaxErr("':' after the field name")
		}
		s.pos++
		switch {
		case bytes.EqualFold(key, []byte("x")):
			err = s.x(maxRows)
		case bytes.EqualFold(key, []byte("timeout_ms")):
			err = s.timeout()
		case bytes.EqualFold(key, []byte("priority")):
			err = s.priorityLane()
		default:
			err = fmt.Errorf("bad request body: unknown field %q", key)
		}
		if err != nil {
			return err
		}
		switch s.next() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return nil
		default:
			return s.syntaxErr("',' or '}'")
		}
	}
}

// x scans the value of the x field — null, or an array of rows — into vals,
// replacing what an earlier x field left there. Every occurrence is held to
// the shape rules as it goes by, the row budget first among them.
func (s *bodyScanner) x(maxRows int) error {
	s.vals, s.rows, s.width = s.vals[:0], 0, 0
	switch s.next() {
	case 'n':
		return s.null()
	case '[':
		s.pos++
	default:
		return s.syntaxErr("an array of rows for x")
	}
	if s.next() == ']' {
		s.pos++
		return nil
	}
	for {
		if maxRows > 0 && s.rows == maxRows {
			return fmt.Errorf("x has more than %d rows, the most this gateway accepts per request", maxRows)
		}
		n, err := s.row()
		if err != nil {
			return err
		}
		switch {
		case s.rows == 0 && n == 0:
			return errors.New("x rows must be non-empty feature vectors")
		case s.rows == 0:
			s.width = n
		case n != s.width:
			return fmt.Errorf("ragged input: row 0 has %d features, row %d has %d", s.width, s.rows, n)
		}
		s.rows++
		switch s.next() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.syntaxErr("',' or ']' after a row")
		}
	}
}

// row scans row s.rows of x — null, or an array of numbers and nulls — and
// returns how many features it holds. The first row sets the width, so all
// of it is appended to vals; a later row is appended up to that width and
// counted to its end, so the ragged-input verdict can name its length.
func (s *bodyScanner) row() (int, error) {
	switch s.next() {
	case 'n':
		return 0, s.null()
	case '[':
		s.pos++
	default:
		return 0, s.syntaxErr("a row of numbers")
	}
	if s.next() == ']' {
		s.pos++
		return 0, nil
	}
	for n := 0; ; {
		var v float64
		switch c := s.next(); {
		case c == '-' || '0' <= c && c <= '9':
			var err error
			if v, err = s.number(); err != nil {
				return 0, err
			}
		case c == 'n':
			if err := s.null(); err != nil {
				return 0, err
			}
		default:
			return 0, s.syntaxErr("a number")
		}
		if s.rows == 0 || n < s.width {
			s.vals = append(s.vals, v)
		}
		n++
		switch s.next() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return n, nil
		default:
			return 0, s.syntaxErr("',' or ']' after a number")
		}
	}
}

// maxTimeoutMS is the largest timeout_ms a time.Duration can hold.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// timeout scans the value of timeout_ms: an integer literal, or null. Its
// range is scan's business, once the last one has won.
func (s *bodyScanner) timeout() error {
	c := s.next()
	if c == 'n' {
		return s.null()
	}
	if c != '-' && (c < '0' || c > '9') {
		return s.syntaxErr("an integer for timeout_ms")
	}
	start := s.pos
	if _, err := s.number(); err != nil {
		return err
	}
	ms, err := strconv.ParseInt(string(s.buf[start:s.pos]), 10, 64)
	if err != nil {
		return fmt.Errorf("bad request body: offset %d: timeout_ms must be a whole number of milliseconds", start)
	}
	s.timeoutMS = ms
	return nil
}

// priorityLane scans the value of priority: a string, or null. Which
// strings name a lane is scan's business, once the last one has won.
func (s *bodyScanner) priorityLane() error {
	switch s.next() {
	case 'n':
		return s.null()
	case '"':
		v, err := s.str()
		s.priority = string(v)
		return err
	}
	return s.syntaxErr("a string for priority")
}

// null consumes the literal null.
func (s *bodyScanner) null() error {
	for i := 0; i < len("null"); i++ {
		if !s.more() || s.buf[s.pos] != "null"[i] {
			return s.syntaxErr("null")
		}
		s.pos++
	}
	return nil
}

// number consumes the number at pos and returns its value.
func (s *bodyScanner) number() (float64, error) {
	v, n, err := scanNumber(s.buf[s.pos:])
	if s.pos+n == len(s.buf) && s.fill() {
		// The token ran into the end of what has been read. Read on until a
		// byte that cannot continue it is buffered, then scan it again: once,
		// however many reads a slow sender spreads the token over.
		for end := s.pos + n; end < len(s.buf) || s.fill(); end++ {
			if c := s.buf[end]; (c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' && c != '+' && c != '-' {
				break
			}
		}
		v, n, err = scanNumber(s.buf[s.pos:])
	}
	switch err {
	case nil:
		s.pos += n
		return v, nil
	case errNumberRange:
		return 0, fmt.Errorf("bad request body: offset %d: number does not fit a float64", s.pos)
	}
	s.pos += n
	return 0, s.syntaxErr("a digit")
}

var (
	errNumberSyntax = errors.New("malformed number")
	errNumberRange  = errors.New("number out of range")
)

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// scanNumber converts the JSON number that starts b. n is how far it read:
// the token's length when err is nil or errNumberRange, the offset of the
// offending byte when err is errNumberSyntax. A scan that stops at len(b)
// may have stopped short of a token that continues in bytes not yet read.
//
// The value is strconv.ParseFloat's, bit for bit. When the digits fit a
// uint64 (at most 19 of them), the mantissa is below 2^53 and the
// decimal exponent within ±22, mantissa and power of ten are both exact
// float64s and IEEE 754 rounds their one product or quotient correctly —
// which is the value ParseFloat, being correctly rounded, also returns (it
// is the first case ParseFloat tries: Clinger's). Every other token goes to
// ParseFloat itself.
func scanNumber(b []byte) (f float64, n int, err error) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// mant takes every digit, wrapping once there are more than 19 of them;
	// digits counts them (leading zeros too, which only sends the odd
	// 0.000…01 to ParseFloat) so that a wrapped mant is never used.
	var mant uint64
	start := i
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
	default:
		return 0, i, errNumberSyntax
	}
	digits, exp10 := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		if i == start {
			return 0, i, errNumberSyntax
		}
		digits += i - start
		exp10 = start - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		e := 0
		for start = i; i < len(b) && b[i]-'0' <= 9; i++ {
			if e < 1<<20 {
				e = e*10 + int(b[i]-'0')
			} else {
				digits = 20 // an exponent this long: leave it to ParseFloat
			}
		}
		if i == start {
			return 0, i, errNumberSyntax
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	if digits <= 19 && mant < 1<<53 && -22 <= exp10 && exp10 <= 22 {
		f = float64(mant)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / pow10[-exp10], i, nil
		}
		return f * pow10[exp10], i, nil
	}
	if f, err = strconv.ParseFloat(string(b[:i]), 64); err != nil {
		return 0, i, errNumberRange
	}
	return f, i, nil
}

// str consumes the string literal at pos and returns its value, escapes
// resolved. The result aliases buf unless it needed rewriting.
func (s *bodyScanner) str() ([]byte, error) {
	s.pos++
	start, plain := s.pos, true
	for s.more() {
		switch c := s.buf[s.pos]; {
		case c == '"':
			raw := s.buf[start:s.pos]
			s.pos++
			if plain {
				return raw, nil
			}
			return unquote(raw), nil
		case c == '\\':
			plain = false
			s.pos++
			if !s.more() {
				return nil, s.syntaxErr("an escape")
			}
			switch s.buf[s.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					s.pos++
					if !s.more() || hexVal(s.buf[s.pos]) < 0 {
						return nil, s.syntaxErr("a hex digit")
					}
				}
			default:
				return nil, s.syntaxErr("an escape")
			}
		case c < ' ':
			return nil, s.syntaxErr("a string without control characters")
		case c >= utf8.RuneSelf:
			plain = false // may hold invalid UTF-8
		}
		s.pos++
	}
	return nil, s.syntaxErr("'\"'")
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return -1
}

// unquote resolves the escapes in the body of a string literal that str has
// checked, the way encoding/json does: invalid UTF-8 and surrogate halves
// without a partner become U+FFFD.
func unquote(raw []byte) []byte {
	u4 := func(b []byte) rune { // the rune of a leading \uXXXX, else -1
		if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
			return -1
		}
		return hexVal(b[2])<<12 | hexVal(b[3])<<8 | hexVal(b[4])<<4 | hexVal(b[5])
	}
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := u4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, u4(raw[i:])); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			out = append(out, "\"\\/\b\f\n\r\t"[strings.IndexByte(`"\/bfnrt`, raw[i+1])])
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}
