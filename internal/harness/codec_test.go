package harness

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"routersim/internal/sim"
	"routersim/internal/stats"
)

// checkCodec holds the codec to encoding/json on one value: the
// encoder's bytes (and its refusal of non-finite floats) are
// json.Marshal's, and the decoder accepts them and reads back what
// json.Unmarshal reads.
func checkCodec(t *testing.T, r JobResult) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, gotErr := appendJobResult([]byte("prefix"), &r)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("appendJobResult error %v, json.Marshal error %v\n%+v", gotErr, wantErr, r)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("appendJobResult error %q, json.Marshal error %q", gotErr, wantErr)
		}
		return
	}
	if !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("appendJobResult diverges from json.Marshal\n got %s\nwant prefix%s", got, want)
	}
	scJSON, err := json.Marshal(r.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	if sc := appendScenario(nil, &r.Scenario); !bytes.Equal(sc, scJSON) {
		t.Fatalf("appendScenario diverges from json.Marshal\n got %s\nwant %s", sc, scJSON)
	}
	var dec JobResult
	if !decodeJobResult(want, &dec) {
		t.Fatalf("decoder rejects its own encoder's output\n%s", want)
	}
	checkDecoded(t, want, dec)
}

// checkDecoded: whatever the decoder accepts, json.Unmarshal accepts
// too and reads the same value from.
func checkDecoded(t *testing.T, payload []byte, dec JobResult) {
	t.Helper()
	var ref JobResult
	if err := json.Unmarshal(payload, &ref); err != nil {
		t.Fatalf("decoder accepted what json.Unmarshal rejects (%v)\n%q", err, payload)
	}
	if !reflect.DeepEqual(dec, ref) {
		t.Fatalf("decoder and json.Unmarshal disagree on %q\n got %+v\nwant %+v", payload, dec, ref)
	}
}

// codecStrings and codecFloats are the awkward values: every class of
// byte encoding/json treats specially, and both ends of each float
// spelling rule.
var (
	codecStrings = []string{
		"", "mesh", `say "hi"`, `back\slash`, "<script>&amp;</script>", "tab\there", "nul\x00byte", "\x1f",
		"del\x7f", "héllo wörld", "日本語", "line\u2028sep\u2029", "bad\xff\xfeutf8", "trunc\xe6\x97", "a,b\nc", "\ufffd",
	}
	codecFloats = []float64{
		0, math.Copysign(0, -1), 0.1, -0.35, 1e-6, 1e-7, -2.5e-7, 9.999999e-7, 1e20, 1e21, -1e21, 1.5e300,
		math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64, 123456789.125,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
)

// buildResult draws a JobResult from fuzzer-style inputs. mask selects
// which omitempty fields (and which optional objects) are present.
func buildResult(mask uint16, s1, s2 string, f1, f2 float64, seed uint64, n int64) JobResult {
	on := func(bit uint) bool { return mask&(1<<bit) != 0 }
	pick := func(bit uint, s string) string {
		if on(bit) {
			return s
		}
		return ""
	}
	r := JobResult{
		Index: int(n),
		Scenario: Scenario{
			Router: s1, Topology: s2, K: int(n >> 3), Pattern: s1 + s2, VCs: int(-n), BufPerVC: 4,
			PacketSize: int(n % 7), CreditDelay: 1, Shards: int(n >> 60),
			Source: pick(0, s1+"x"), Sizes: pick(1, s2+"y"), Overrides: pick(2, "0:vcs=4;"+s1),
			Routing: pick(3, "adaptive:minimal"), Faults: pick(4, s2+"link:5-6@cycle=200"), Load: f1,
		},
		Seed: seed,
		Wall: 12345,
	}
	if on(5) {
		res := &sim.Result{
			OfferedLoad: f1, AcceptedLoad: f2,
			Latency:   stats.Summary{MeanLatency: f2 * 3, P50: n, P95: -n, MaxLatency: math.MaxInt64, Packets: int(n >> 8), Accepted: f1 / 3},
			Saturated: on(6), Cycles: n + 1, TaggedDone: int(n >> 9), Tagged: int(n >> 10), MinTurnaround: n & 7,
		}
		if on(7) {
			res.AcceptedCI = f2 / 7
		}
		if on(8) {
			res.Latency.MeanCI = f1 * 5
		}
		if on(9) {
			res.Latency.Censored = int(n>>11) | 1
		}
		if on(10) {
			res.Unroutable = n | 1
		}
		if on(11) {
			res.DroppedFlits = -(n | 1)
		}
		r.Result = res
	}
	if on(12) {
		r.Model = &DelayModel{Ports: int(n & 15), VCs: int(n >> 5), Stages: 3}
	}
	if on(13) {
		r.Error = "panic: " + s1
	}
	if on(14) {
		r.Failure = &JobError{Scenario: s2, Message: s1, Stack: s1 + "\n\t" + s2 + " +0x…", Attempts: int(n & 3)}
	}
	return r
}

// TestJobResultCodecTable runs the differential check over every
// omitempty combination of the scenario (mask bits 0-4) and of the rest
// (bits 5-14), each against both extremes of the other, and over every
// awkward string and float.
func TestJobResultCodecTable(t *testing.T) {
	var masks []uint16
	for lo := uint16(0); lo < 1<<5; lo++ {
		masks = append(masks, lo, lo|0x7fe0)
	}
	for hi := uint16(0); hi < 1<<10; hi++ {
		masks = append(masks, hi<<5, hi<<5|0x1f)
	}
	for n, mask := range masks {
		i := n % len(codecStrings)
		j := n % (len(codecFloats) - 3) // finite only: every combination must encode
		checkCodec(t, buildResult(mask, codecStrings[i], codecStrings[(i+5)%len(codecStrings)],
			codecFloats[j], codecFloats[(j+3)%(len(codecFloats)-3)], uint64(n)*0x9e3779b97f4a7c15, int64(n)-900))
	}
	for i, s := range codecStrings {
		for j, f := range codecFloats {
			for _, mask := range []uint16{0, 0x3fbf, 0x7fff} {
				seed := uint64(math.MaxUint64) - uint64(i)
				n := int64(math.MaxInt64) >> uint(j)
				checkCodec(t, buildResult(mask, s, codecStrings[(i+1)%len(codecStrings)], f, codecFloats[(j+1)%len(codecFloats)], seed, n))
				checkCodec(t, buildResult(mask, "vc", "mesh", f, f, seed, -n))
			}
		}
	}
}

// TestDecoderRejects: near misses of the accepted form. Each is valid
// JSON for the same value (or a broken token) that this engine never
// writes, so each is a miss.
func TestDecoderRejects(t *testing.T) {
	good, err := appendJobResult(nil, &JobResult{
		Index: 3, Scenario: Scenario{Router: "vc", Topology: "mesh", K: 8, Pattern: "uniform", VCs: 2, Load: 0.25},
		Seed: 99, Result: &sim.Result{OfferedLoad: 0.25, Cycles: 1200}, Model: &DelayModel{Ports: 5, VCs: 2, Stages: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	var r JobResult
	if !decodeJobResult(good, &r) {
		t.Fatalf("decoder rejects its own encoder's output: %s", good)
	}
	mutate := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("payload lacks %q: %s", old, good)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	for name, payload := range map[string][]byte{
		"empty":              nil,
		"truncated":          good[:len(good)-1],
		"trailing byte":      append(append([]byte(nil), good...), '\n'),
		"leading space":      append([]byte(" "), good...),
		"space after colon":  mutate(`"index":3`, `"index": 3`),
		"reordered keys":     mutate(`"index":3,`, ``),
		"unknown key":        mutate(`"seed":99`, `"seed":99,"extra":1`),
		"leading zero":       mutate(`"k":8`, `"k":08`),
		"int with fraction":  mutate(`"k":8`, `"k":8.0`),
		"int with exponent":  mutate(`"k":8`, `"k":8e0`),
		"int out of range":   mutate(`"k":8`, `"k":9223372036854775808`),
		"negative seed":      mutate(`"seed":99`, `"seed":-99`),
		"seed out of range":  mutate(`"seed":99`, `"seed":18446744073709551616`),
		"float no int part":  mutate(`"load":0.25`, `"load":.25`),
		"float no fraction":  mutate(`"load":0.25`, `"load":0.`),
		"float plus sign":    mutate(`"load":0.25`, `"load":+0.25`),
		"float empty exp":    mutate(`"load":0.25`, `"load":0.25e`),
		"float out of range": mutate(`"load":0.25`, `"load":1e999`),
		"float hex":          mutate(`"load":0.25`, `"load":0x1p-2`),
		"float NaN":          mutate(`"load":0.25`, `"load":NaN`),
		"bool capitalised":   mutate(`"saturated":false`, `"saturated":False`),
		"raw control byte":   mutate(`"router":"vc"`, "\"router\":\"v\x01c\""),
		"bad escape":         mutate(`"router":"vc"`, `"router":"v\xc"`),
		"short \\u escape":   mutate(`"router":"vc"`, `"router":"v\u00"`),
		"unterminated":       mutate(`"router":"vc"`, `"router":"vc`),
		"string not quoted":  mutate(`"router":"vc"`, `"router":vc`),
		"null result":        mutate(`"result":{`, `"result":null,"x":{`),
		"null delay model":   mutate(`"delay_model":{"ports":5,"vcs":2,"stages":4}`, `"delay_model":null`),
		"array":              append(append([]byte("["), good...), ']'),
	} {
		if decodeJobResult(payload, &r) {
			t.Errorf("%s: decoder accepted %q", name, payload)
		}
	}
	// Escapes and non-ASCII the encoder itself writes are read back
	// through encoding/json, token by token.
	for _, payload := range [][]byte{
		mutate(`"router":"vc"`, `"router":"vc\n\"\\\/"`),
		mutate(`"router":"vc"`, `"router":"vé\u2028"`),
		mutate(`"load":0.25`, `"load":-2.5E-1`),
		mutate(`"load":0.25`, `"load":-0`),
		mutate(`"seed":99`, `"seed":18446744073709551615`),
		mutate(`}}`, `},"error":"boom","failure":{"scenario":"s","message":"m","stack":"a\n\tb","attempts":2}}`),
	} {
		if !decodeJobResult(payload, &r) {
			t.Errorf("decoder rejected %q", payload)
			continue
		}
		checkDecoded(t, payload, r)
	}
}

// FuzzJobResultCodec is the differential fuzzer, encoding/json the
// oracle: (i) the encoder's bytes are json.Marshal's, (ii) the decoder
// accepts every encoding and agrees with json.Unmarshal on it, (iii)
// on arbitrary bytes the decoder never panics, and whatever it accepts
// json.Unmarshal reads identically.
func FuzzJobResultCodec(f *testing.F) {
	for i, s := range codecStrings {
		fl := codecFloats[i%len(codecFloats)]
		r := buildResult(0x0fff, "vc", "mesh", 0.25, 1e-7, math.MaxUint64, int64(i))
		payload, err := appendJobResult(nil, &r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, uint16(0x7fff>>uint(i%3)), s, codecStrings[(i+3)%len(codecStrings)], fl, codecFloats[(i+7)%len(codecFloats)], uint64(math.MaxUint64)>>uint(i), int64(i)<<40)
	}
	f.Add([]byte(`{"index":0,"scenario":{"router":"\ud800","topology":"","k":-0`), uint16(0x20), "", "", 0.0, math.Copysign(0, -1), uint64(0), int64(math.MinInt64))
	// A payload that sets the retired step_workers axis: both decoders
	// refuse it.
	f.Add([]byte(`{"index":1,"scenario":{"router":"vc","topology":"mesh","k":4,"pattern":"uniform","vcs":2,"buf_per_vc":4,"packet_size":5,"credit_delay":1,"step_workers":2,"shards":0,"load":0.2},"seed":3}`),
		uint16(0), "", "", 0.0, 0.0, uint64(0), int64(0))
	f.Fuzz(func(t *testing.T, raw []byte, mask uint16, s1, s2 string, f1, f2 float64, seed uint64, n int64) {
		checkCodec(t, buildResult(mask, s1, s2, f1, f2, seed, n))
		var dec JobResult
		if decodeJobResult(raw, &dec) {
			checkDecoded(t, raw, dec)
		}
		// The same bytes as one string token inside an otherwise valid
		// payload reach the decoder's string and escape handling.
		r := buildResult(0x1020, "vc", "mesh", 0.5, 0.5, seed, n)
		payload, err := appendJobResult(nil, &r)
		if err != nil {
			t.Fatal(err)
		}
		payload = bytes.Replace(payload, []byte(`"router":"vc"`), append(append([]byte(`"router":"`), raw...), '"'), 1)
		if decodeJobResult(payload, &dec) {
			checkDecoded(t, payload, dec)
		}
	})
}

// referenceCSVRow is the fmt.Fprintf row WriteCSV was built on before
// appendCSVRow, kept here as the reference the append version is held
// to. Floats go through the json encoder itself.
func referenceCSVRow(w io.Writer, r JobResult) error {
	fmtFloat := func(f float64) string {
		b, err := json.Marshal(f)
		if err != nil {
			return "NaN"
		}
		return string(b)
	}
	csvEscape := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	sc := r.Scenario
	var offered, accepted, acceptedCI, mean, meanCI float64
	var p50, p95, max, cycles, unroutable, droppedFlits int64
	var packets, censored int
	saturated := false
	if r.Result != nil {
		offered = r.Result.OfferedLoad
		accepted = r.Result.AcceptedLoad
		acceptedCI = r.Result.AcceptedCI
		mean = r.Result.Latency.MeanLatency
		meanCI = r.Result.Latency.MeanCI
		p50, p95, max = r.Result.Latency.P50, r.Result.Latency.P95, r.Result.Latency.MaxLatency
		packets = r.Result.Latency.Packets
		censored = r.Result.Latency.Censored
		unroutable = r.Result.Unroutable
		droppedFlits = r.Result.DroppedFlits
		cycles = r.Result.Cycles
		saturated = r.Result.Saturated
	}
	var ports, modelStages int
	if r.Model != nil {
		ports, modelStages = r.Model.Ports, r.Model.Stages
	}
	_, err := fmt.Fprintf(w, "%d,%s,%s,%d,%s,%d,%d,%d,%d,0,%d,%s,%s,%s,%s,%s,%s,%d,%d,%d,%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%t,%s\n",
		r.Index, csvEscape(sc.Router), csvEscape(sc.Topology), sc.K, csvEscape(sc.Pattern), sc.VCs, sc.BufPerVC,
		sc.PacketSize, sc.CreditDelay, sc.Shards,
		csvEscape(sc.Source), csvEscape(sc.Sizes), csvEscape(sc.Overrides), csvEscape(sc.Routing), csvEscape(sc.Faults), fmtFloat(sc.Load), r.Seed,
		ports, modelStages,
		fmtFloat(offered), fmtFloat(accepted), fmtFloat(acceptedCI), fmtFloat(mean), fmtFloat(meanCI),
		p50, p95, max, packets, censored, unroutable, droppedFlits, cycles, saturated, csvEscape(r.Error))
	return err
}

// TestCSVRowMatchesReference: appendCSVRow against the Fprintf row, on
// plain rows, rows whose fields need quoting, failed-job rows, and
// every float spelling.
func TestCSVRowMatchesReference(t *testing.T) {
	rows := []JobResult{
		{},
		buildResult(0x1fff, "spec-vc", "mesh", 0.3, 0.29, 7, 1234),
		buildResult(0x1020, "vc", "torus:n=3", 0.1, 1e-7, math.MaxUint64, -5),
		// Quoted fields: overrides and faults specs carry commas, an
		// error message can carry anything.
		buildResult(0x7fff, `say "hi"`, "a,b\nc", 1e21, -0.0, 1, 99),
		buildResult(0x601f, "no-such-router", "mesh", 0.2, 0, 42, 3),                  // failed job: no result, no model
		buildResult(0x2000, "vc", "mesh", math.NaN(), math.Inf(1), 42, 3),             // refused load: still a row
		buildResult(0x0fe0, "wormhole", "ring", math.SmallestNonzeroFloat64, 5, 2, 1), // every result column nonzero
	}
	for _, s := range codecStrings {
		for _, f := range codecFloats {
			rows = append(rows, buildResult(0x3fff, s, s+",", f, -f, 11, int64(len(s))))
		}
	}
	var want bytes.Buffer
	for i, r := range rows {
		want.Reset()
		if err := referenceCSVRow(&want, r); err != nil {
			t.Fatal(err)
		}
		if got := appendCSVRow(nil, &r); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("row %d diverges from the Fprintf reference\n got %q\nwant %q", i, got, want.Bytes())
		}
	}
	// And through WriteCSV: header, then the rows in order.
	want.Reset()
	want.WriteString(CSVHeader + "\n")
	for _, r := range rows {
		referenceCSVRow(&want, r)
	}
	var got bytes.Buffer
	if err := WriteCSV(&got, rows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("WriteCSV diverges from header + reference rows")
	}
}

// TestJobKeyGolden pins the content address of three jobs to the hex
// computed before the scenario bytes were hand-written (when both key
// parts came from json.Marshal): existing stores are addressed by
// these keys, so they can never drift.
func TestJobKeyGolden(t *testing.T) {
	tiny := Protocol{Warmup: 300, Packets: 150}
	for _, c := range []struct {
		name string
		sc   Scenario
		seed uint64
		pr   Protocol
		want string
	}{
		{"plain mesh job", Scenario{Router: "spec-vc", Load: 0.2}, 42, tiny,
			"4fa6e8ed247da4ac7be09afa33ad8d3c26bc36425351ca8d9e3ce72ed4b932c9"},
		{"source and faults set, non-canonical spelling",
			Scenario{Router: "vc", Topology: "torus", K: 4, Pattern: "transpose", VCs: 4,
				Source: "mmpp:off=60,on=20", Faults: "link:6-5@cycle=500", Load: 0.35},
			math.MaxUint64, Protocol{Warmup: 10000, Packets: 100000, Exact: true, CITarget: 0.02},
			"5b9fcfc8d89e7bbf4d45d394daf50a6a16e50693971c5449ce7e7dd61dbcb931"},
		{"load in exponent form", Scenario{Router: "wormhole", Load: 2.5e-7}, 7, tiny,
			"a1833f9d94d62b631dc767fc75eaad8c36fa14a368d11a60aaf8a0899dfdcac9"},
	} {
		key := jobKey(c.sc, c.seed, protocolJSON(c.pr))
		if got := hex.EncodeToString(key[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}
