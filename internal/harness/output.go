package harness

import (
	"io"
	"math"
	"strconv"
	"strings"

	"routersim/internal/sim"
)

// WriteJSON serializes results as one JSON array, in job-index order.
// The payload is deterministic: same matrix + same seed → identical
// bytes, regardless of the worker count that produced the results.
func WriteJSON(w io.Writer, results []JobResult) error {
	js := NewJSONStream(w)
	for _, r := range results {
		if err := js.Write(r); err != nil {
			return err
		}
	}
	return js.Close()
}

// JSONStream incrementally writes a JSON array of results, one element
// per Write. Feed it from Options.OnResult to stream a large matrix
// without holding the serialized form in memory.
type JSONStream struct {
	w     io.Writer
	buf   []byte // one element and its separator, reused across Writes
	wrote bool
	err   error
}

// NewJSONStream returns a stream writing to w.
func NewJSONStream(w io.Writer) *JSONStream { return &JSONStream{w: w} }

// Write appends one result to the array.
func (s *JSONStream) Write(r JobResult) error {
	if s.err != nil {
		return s.err
	}
	sep := "[\n "
	if s.wrote {
		sep = ",\n "
	}
	if s.buf, s.err = appendJobResult(append(s.buf[:0], sep...), &r); s.err != nil {
		return s.err
	}
	if _, s.err = s.w.Write(s.buf); s.err != nil {
		return s.err
	}
	s.wrote = true
	return nil
}

// Close terminates the array. The stream is not reusable afterwards.
func (s *JSONStream) Close() error {
	if s.err != nil {
		return s.err
	}
	if !s.wrote {
		_, s.err = io.WriteString(s.w, "[]\n")
		return s.err
	}
	_, s.err = io.WriteString(s.w, "\n]\n")
	return s.err
}

// CSVHeader is the column set of WriteCSV, one row per job: the index,
// one column per axis, then the seed and the results. censored counts
// tagged packets the cycle cap cut off (nonzero ⇒ the latency columns
// are lower bounds, not measurements); mean_ci and accepted_ci are 95%
// batch-means confidence half-widths.
var CSVHeader = "index," + axisColumns("") + ",seed," +
	"ports,model_stages,offered,accepted,accepted_ci,mean_latency,mean_ci,p50,p95,max_latency,packets,censored,unroutable,dropped_flits,cycles,saturated,error"

// WriteCSV serializes results as CSV in job-index order, with the same
// determinism guarantee as WriteJSON.
func WriteCSV(w io.Writer, results []JobResult) error {
	if _, err := io.WriteString(w, CSVHeader+"\n"); err != nil {
		return err
	}
	var row []byte
	for i := range results {
		row = appendCSVRow(row[:0], &results[i])
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// appendCSVRow appends r's CSV row, newline included, to dst: one
// column per line below, in CSVHeader's order. Floats are spelled as in
// the JSON, so the two agree byte for byte on every value.
func appendCSVRow(dst []byte, r *JobResult) []byte {
	// A failed job has no result, and a kind the delay model does not
	// describe has no model: their columns are zeros.
	var res sim.Result
	if r.Result != nil {
		res = *r.Result
	}
	var model DelayModel
	if r.Model != nil {
		model = *r.Model
	}
	lat := &res.Latency
	dst = csvInt(dst, int64(r.Index))
	dst = appendAxes(dst, &r.Scenario, "")
	dst = append(strconv.AppendUint(dst, r.Seed, 10), ',')
	dst = csvInt(dst, int64(model.Ports))
	dst = csvInt(dst, int64(model.Stages))
	dst = csvFloat(dst, res.OfferedLoad)
	dst = csvFloat(dst, res.AcceptedLoad)
	dst = csvFloat(dst, res.AcceptedCI)
	dst = csvFloat(dst, lat.MeanLatency)
	dst = csvFloat(dst, lat.MeanCI)
	dst = csvInt(dst, lat.P50)
	dst = csvInt(dst, lat.P95)
	dst = csvInt(dst, lat.MaxLatency)
	dst = csvInt(dst, int64(lat.Packets))
	dst = csvInt(dst, int64(lat.Censored))
	dst = csvInt(dst, res.Unroutable)
	dst = csvInt(dst, res.DroppedFlits)
	dst = csvInt(dst, res.Cycles)
	dst = append(strconv.AppendBool(dst, res.Saturated), ',')
	dst = csvString(dst, r.Error)
	dst[len(dst)-1] = '\n' // the last column's separator ends the row
	return dst
}

// csvInt, csvFloat and csvString append one column and its separator.

func csvInt(dst []byte, v int64) []byte { return append(strconv.AppendInt(dst, v, 10), ',') }

func csvFloat(dst []byte, f float64) []byte { return append(appendFloat(dst, f), ',') }

func csvString(dst []byte, s string) []byte { return append(appendCSVField(dst, s), ',') }

// appendFloat spells f as encoding/json does (the ES6 number-to-string
// form: 'f' unless |f| < 1e-6 or >= 1e21, then 'e' with "e-09" cleaned
// up to "e-9"), so JSON, CSV and checkpoint-key bytes agree on every
// value. A non-finite f, which JSON cannot carry, is rendered as a
// greppable "NaN".
func appendFloat(dst []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(dst, "NaN"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendCSVField appends s, quoted if it contains CSV metacharacters.
func appendCSVField(dst []byte, s string) []byte {
	if !strings.ContainsAny(s, ",\"\n") {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, s[i])
	}
	return append(dst, '"')
}

// csvEscape quotes a field if it contains CSV metacharacters.
func csvEscape(s string) string { return string(appendCSVField(nil, s)) }
