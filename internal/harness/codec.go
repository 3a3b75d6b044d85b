package harness

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"

	"routersim/internal/sim"
)

// The one place that knows the serialized JobResult schema byte for byte.
// One walk over the fields (codec.jobResult) serves both directions, so
// the decoder reads exactly what the encoder writes: the bytes of
// json.Marshal(JobResult), without reflection, so sweep output, checkpoint
// payloads and keys are unchanged. FuzzJobResultCodec holds it to that.

// appendJobResult appends r's JSON to dst. Like json.Marshal it fails
// on a non-finite float, with the same error.
func appendJobResult(dst []byte, r *JobResult) ([]byte, error) {
	c := codec{enc: true, b: dst}
	c.jobResult(r)
	return c.b, c.err
}

// appendScenario appends the bytes of json.Marshal(sc), which checkpoint
// keys derive from. A non-finite load is spelled "NaN"; it is never stored.
func appendScenario(dst []byte, sc *Scenario) []byte {
	c := codec{enc: true, b: dst}
	c.scenario(sc)
	return c.b
}

// decodeJobResult parses payload into r, accepting only the layout
// appendJobResult writes: its key order, no whitespace, no unknown keys,
// any JSON number or string. What it accepts, json.Unmarshal reads
// identically. It reports whether it accepted; if not, r is unspecified.
func decodeJobResult(payload []byte, r *JobResult) bool {
	c := codec{b: payload}
	*r = JobResult{}
	c.jobResult(r)
	return c.err == nil && len(c.b) == 0
}

// codec is one pass over a JobResult in either direction. Encoding, b is
// the output so far and err the first value JSON cannot carry. Decoding, b
// is the unread input; a mismatch sets err and drops b, so it is sticky.
type codec struct {
	enc bool
	b   []byte
	err error
}

var errRejected = errors.New("harness: payload is not in the serialized form")

// jobResult, result and the axis table (for the scenario) are the schema:
// each field's serialized key, in order. A leading '?' marks omitempty: a
// zero value is left out when encoding, and the field is optional when
// decoding.

func (c *codec) jobResult(r *JobResult) {
	c.int(`{"index":`, &r.Index)
	c.field(`,"scenario":`, false)
	c.scenario(&r.Scenario)
	c.uint(`,"seed":`, &r.Seed)
	if c.field(`?,"result":`, r.Result == nil) {
		if !c.enc {
			r.Result = new(sim.Result)
		}
		c.result(r.Result)
	}
	if c.field(`?,"delay_model":`, r.Model == nil) {
		if !c.enc {
			r.Model = new(DelayModel)
		}
		c.int(`{"ports":`, &r.Model.Ports)
		c.int(`,"vcs":`, &r.Model.VCs)
		c.int(`,"stages":`, &r.Model.Stages)
		c.field("}", false)
	}
	c.str(`?,"error":`, &r.Error)
	if c.field(`?,"failure":`, r.Failure == nil) {
		if !c.enc {
			r.Failure = new(JobError)
		}
		c.str(`{"scenario":`, &r.Failure.Scenario)
		c.str(`,"message":`, &r.Failure.Message)
		c.str(`,"stack":`, &r.Failure.Stack)
		c.int(`,"attempts":`, &r.Failure.Attempts)
		c.field("}", false)
	}
	c.field("}", false)
}

func (c *codec) scenario(sc *Scenario) {
	fields := sc.fields()
	for i := range fields { // not "i, field": that copies the array
		switch f := fields[i].(type) {
		case *string:
			c.str(axes[i].jsonKey, f)
		case *int:
			c.int(axes[i].jsonKey, f)
		case *float64:
			c.float(axes[i].jsonKey, f)
		case *retired:
			c.field(axes[i].jsonKey, false) // the key and its 0
		}
	}
	c.field("}", false)
}

func (c *codec) result(res *sim.Result) {
	c.float(`{"offered_load":`, &res.OfferedLoad)
	c.float(`,"accepted_load":`, &res.AcceptedLoad)
	c.float(`?,"accepted_ci":`, &res.AcceptedCI)
	lat := &res.Latency
	c.float(`,"latency":{"mean_latency":`, &lat.MeanLatency)
	c.float(`?,"mean_ci":`, &lat.MeanCI)
	c.int64(`,"p50":`, &lat.P50)
	c.int64(`,"p95":`, &lat.P95)
	c.int64(`,"max_latency":`, &lat.MaxLatency)
	c.int(`,"packets":`, &lat.Packets)
	c.int(`?,"censored":`, &lat.Censored)
	c.float(`,"accepted":`, &lat.Accepted)
	c.bool(`},"saturated":`, &res.Saturated)
	c.int64(`,"cycles":`, &res.Cycles)
	c.int(`,"tagged_done":`, &res.TaggedDone)
	c.int(`,"tagged":`, &res.Tagged)
	c.int64(`,"min_turnaround":`, &res.MinTurnaround)
	c.int64(`?,"unroutable":`, &res.Unroutable)
	c.int64(`?,"dropped_flits":`, &res.DroppedFlits)
	c.field("}", false)
}

// field handles a key (or another literal token) and reports whether
// its value comes next. Encoding, it writes the key unless omitempty and
// zero; decoding, it consumes the key, missing only if omitempty.
func (c *codec) field(key string, zero bool) bool {
	omitempty := key[0] == '?'
	if omitempty {
		key = key[1:]
	}
	switch {
	case c.enc && omitempty && zero:
		return false
	case c.enc:
		c.b = append(c.b, key...)
	case len(c.b) >= len(key) && string(c.b[:len(key)]) == key:
		c.b = c.b[len(key):]
	default:
		if !omitempty {
			c.reject()
		}
		return false
	}
	return true
}

func (c *codec) reject() { c.b, c.err = nil, errRejected }

func (c *codec) bool(key string, p *bool) {
	c.field(key, false)
	if c.enc {
		c.b = strconv.AppendBool(c.b, *p)
	} else if *p = c.field("?true", false); !*p {
		c.field("false", false)
	}
}

// The number readers hand strconv a string that does not outlive the call
// (no allocation). Out of range rejects, as it fails json.Unmarshal.

func (c *codec) intN(key string, p *int64, bits int) {
	var err error
	switch {
	case !c.field(key, *p == 0):
	case c.enc:
		c.b = strconv.AppendInt(c.b, *p, 10)
	default:
		*p, err = strconv.ParseInt(string(c.number(true, false)), 10, bits)
	}
	if err != nil {
		c.reject()
	}
}

func (c *codec) int64(key string, p *int64) { c.intN(key, p, 64) }

func (c *codec) int(key string, p *int) {
	v := int64(*p)
	if c.intN(key, &v, strconv.IntSize); !c.enc {
		*p = int(v)
	}
}

func (c *codec) uint(key string, p *uint64) {
	var err error
	switch {
	case !c.field(key, *p == 0):
	case c.enc:
		c.b = strconv.AppendUint(c.b, *p, 10)
	default:
		*p, err = strconv.ParseUint(string(c.number(false, false)), 10, 64)
	}
	if err != nil {
		c.reject()
	}
}

func (c *codec) float(key string, p *float64) {
	var err error
	switch {
	case !c.field(key, *p == 0):
	case !c.enc:
		*p, err = strconv.ParseFloat(string(c.number(true, true)), 64)
	default:
		if c.err == nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			c.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(*p, 'g', -1, 64)}
		}
		c.b = appendFloat(c.b, *p)
	}
	if err != nil {
		c.reject()
	}
}

// number consumes one number token of the JSON grammar — -?(0|[1-9][0-9]*),
// then a fraction and an exponent only if float — and returns it, or
// rejects. The next key checks what follows, so an integer "1.5" fails.
func (c *codec) number(minus, float bool) []byte {
	b, i := c.b, 0
	if minus && len(b) > 0 && b[0] == '-' {
		i = 1
	}
	end := skipDigits(b, i)
	ok := end == i+1 || (end > i && b[i] != '0')
	if i = end; float && i < len(b) && b[i] == '.' {
		end = skipDigits(b, i+1)
		ok, i = ok && end > i+1, end
	}
	if float && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		end = skipDigits(b, i)
		ok, i = ok && end > i, end
	}
	if !ok {
		c.reject()
		return nil
	}
	c.b = b[i:]
	return b[:i]
}

// skipDigits returns the first index at or after i that holds no digit.
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// plainASCII: printable ASCII that encoding/json writes as itself (not "\<>&).
func plainASCII(c byte) bool {
	return 0x20 <= c && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// str handles a string. Spec strings are plain ASCII and are copied
// between quotes, either way. Any other (panic messages, stacks, paths)
// goes through encoding/json itself, token by token, so escaping and
// invalid-UTF-8 replacement cannot drift from it.
func (c *codec) str(key string, p *string) {
	if !c.field(key, *p == "") {
		return
	}
	if c.enc {
		c.b = appendString(c.b, *p)
		return
	}
	b, plain := c.b, true
	for i := 1; i < len(b) && b[0] == '"'; i++ {
		switch ch := b[i]; {
		case ch == '\\':
			plain = false
			i++ // the escaped byte cannot end the token
		case ch != '"':
			plain = plain && plainASCII(ch)
		default:
			if c.b = b[i+1:]; plain {
				*p = string(b[1:i])
			} else {
				*p = c.unquote(b[:i+1])
			}
			return
		}
	}
	c.reject() // not opened or not closed by a quote
}

// unquote goes through a local so that Unmarshal does not make r escape.
func (c *codec) unquote(token []byte) (s string) {
	if json.Unmarshal(token, &s) != nil {
		c.reject()
	}
	return s
}

// appendString appends s as encoding/json quotes it.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainASCII(s[i]) {
			b, _ := json.Marshal(s) // cannot fail on a string
			return append(dst, b...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}
