package metrics

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"
)

// Prometheus text exposition (version 0.0.4) for the admin server's
// /metrics endpoint. The runtime's flat counter names are mapped onto the
// Prometheus data model:
//
//   - "peer.<addr>.<field>" (the supervisor's per-peer series) becomes
//     teamnet_peer_<field>{peer="<addr>"} — one metric family per field
//     with the address as a label, so dashboards aggregate across peers.
//   - every other name is sanitized into teamnet_<name> with non-alphanumeric
//     runes collapsed to '_'.
//
// Counters get the conventional _total suffix and gauges are bare levels;
// duration histograms are exposed in seconds (<name>_seconds) and value
// histograms in their raw unit, both with cumulative le buckets, _sum and
// _count — exactly the shape prometheus' scraper and promql's
// histogram_quantile expect.

// peerSeries splits a "peer.<addr>.<field>" name into its address and
// field, reporting ok=false for names outside that pattern.
func peerSeries(name string) (addr, field string, ok bool) {
	rest, found := strings.CutPrefix(name, "peer.")
	if !found {
		return "", "", false
	}
	i := strings.LastIndex(rest, ".")
	if i <= 0 || i == len(rest)-1 {
		return "", "", false
	}
	return rest[:i], rest[i+1:], true
}

// sanitizeMetricName maps an arbitrary runtime name onto the Prometheus
// metric-name charset [a-zA-Z0-9_].
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// seriesName renders one exposition series for a flat runtime name: the
// metric family (name plus suffix), the peer label when the name is a
// per-peer series, and the le label when le is non-empty.
func seriesName(name, suffix, le string) string {
	var labels []string
	if addr, field, ok := peerSeries(name); ok {
		name = "peer." + field
		labels = append(labels, fmt.Sprintf("peer=%q", escapeLabel(addr)))
	}
	if le != "" {
		labels = append(labels, fmt.Sprintf("le=%q", le))
	}
	s := "teamnet_" + sanitizeMetricName(name) + suffix
	if len(labels) > 0 {
		s += "{" + strings.Join(labels, ",") + "}"
	}
	return s
}

// WritePrometheus renders every metric of the given registries in the
// Prometheus text exposition format, metric names prefixed with "teamnet_".
// Nil registries are skipped, so callers pass whatever the process keeps.
//
// Every line of one histogram comes from a single copy of its buckets, so
// even while observations land mid-scrape the le counts never decrease,
// the last finite bucket never exceeds +Inf, and +Inf equals _count. (_sum
// is a separate atomic and may lead or trail by the observations in
// flight.)
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var b bytes.Buffer
	for _, r := range regs {
		if r == nil {
			continue
		}
		for _, s := range r.sorted() {
			switch v := s.metric.(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s %d\n", seriesName(s.name, "_total", ""), v.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s %d\n", seriesName(s.name, "", ""), v.Value())
			case *Histogram:
				writeHistogram(&b, s.name, v)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// writeHistogram renders h's bucket, _sum and _count lines. The finite
// buckets stop at the first one that reaches the total (none does once an
// observation has overflowed), but never before the tenth (<=512µs, <=512),
// so an idle series still shows its low end.
func writeHistogram(b *bytes.Buffer, name string, h *Histogram) {
	suffix, unit := "_seconds", func(v int64) string { return fmt.Sprintf("%g", time.Duration(v).Seconds()) }
	if h.raw {
		suffix, unit = "", func(v int64) string { return fmt.Sprint(v) }
	}
	buckets, total := h.load()
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += buckets[i]
		fmt.Fprintf(b, "%s %d\n", seriesName(name, suffix+"_bucket", unit(h.bound(i))), cum)
		if cum == total && i >= 9 {
			break
		}
	}
	fmt.Fprintf(b, "%s %d\n", seriesName(name, suffix+"_bucket", "+Inf"), total)
	fmt.Fprintf(b, "%s %s\n", seriesName(name, suffix+"_sum", ""), unit(h.Sum()))
	fmt.Fprintf(b, "%s %d\n", seriesName(name, suffix+"_count", ""), total)
}
