package stream

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/gen"
	"provex/internal/tweet"
)

func genMessages(n int) []*tweet.Message {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 5000
	cfg.Users = 500
	cfg.VocabSize = 800
	cfg.EventsPerDay = 200
	g := gen.New(cfg)
	msgs := make([]*tweet.Message, n)
	for i := range msgs {
		msgs[i] = g.Next()
	}
	return msgs
}

// sliceSource replays an in-memory slice.
type sliceSource struct {
	msgs []*tweet.Message
	pos  int
}

func newSliceSource(msgs []*tweet.Message) *sliceSource { return &sliceSource{msgs: msgs} }

func (s *sliceSource) Next() (*tweet.Message, error) {
	if s.pos >= len(s.msgs) {
		return nil, io.EOF
	}
	m := s.msgs[s.pos]
	s.pos++
	return m, nil
}

// drain pulls every message from src into a slice.
func drain(src Source) ([]*tweet.Message, error) {
	var out []*tweet.Message
	for {
		m, err := src.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, m)
	}
}

func TestSliceSource(t *testing.T) {
	msgs := genMessages(10)
	src := newSliceSource(msgs)
	got, err := drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, msgs) {
		t.Error("drained messages differ from input")
	}
	if _, err := src.Next(); err != io.EOF {
		t.Errorf("exhausted source returned %v, want io.EOF", err)
	}
}

func TestLimit(t *testing.T) {
	msgs := genMessages(10)
	got, err := drain(Limit(newSliceSource(msgs), 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("Limit(4) yielded %d messages", len(got))
	}
	if got2, _ := drain(Limit(newSliceSource(msgs), 99)); len(got2) != 10 {
		t.Fatalf("Limit beyond length yielded %d, want 10", len(got2))
	}
}

func TestTee(t *testing.T) {
	msgs := genMessages(7)
	var seen int
	src := Tee(newSliceSource(msgs), func(*tweet.Message) { seen++ })
	if _, err := drain(src); err != nil {
		t.Fatal(err)
	}
	if seen != 7 {
		t.Errorf("observer saw %d messages, want 7", seen)
	}
}

func TestFuncSourceWithLimit(t *testing.T) {
	i := 0
	f := FuncSource(func() *tweet.Message {
		i++
		return &tweet.Message{ID: tweet.ID(i), User: "u", Text: "x", Date: int64(i) * int64(time.Second)}
	})
	got, err := drain(Limit(f, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4].ID != 5 {
		t.Fatalf("FuncSource/Limit yielded %d messages, last %v", len(got), got[len(got)-1])
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	msgs := genMessages(500)
	var buf bytes.Buffer
	n, err := WriteJSONL(&buf, newSliceSource(msgs))
	if err != nil || n != 500 {
		t.Fatalf("WriteJSONL = (%d, %v)", n, err)
	}
	got, err := drain(NewJSONLReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("round trip lost messages: %d vs %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(got[i], msgs[i]) {
			t.Fatalf("message %d differs after round trip:\n  in:  %+v\n  out: %+v", i, msgs[i], got[i])
		}
	}
}

func TestJSONLReaderSkipsBlankLines(t *testing.T) {
	input := `{"id":1,"date":"2009-08-01T00:00:00Z","user":"u","text":"hello"}

{"id":2,"date":"2009-08-01T00:00:01Z","user":"v","text":"world"}
`
	got, err := drain(NewJSONLReader(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d messages, want 2", len(got))
	}
}

func TestJSONLReaderMalformed(t *testing.T) {
	cases := []string{
		"not json at all\n",
		`{"id":1,"date":"NOT A DATE","user":"u","text":"x"}` + "\n",
		// a date unix nanoseconds cannot hold, which the WAL would store
		// as another one
		`{"id":1,"date":"0000-01-01T00:00:00+01:00","user":"u","text":"x"}` + "\n",
		`{"id":1,"date":"2300-01-01T00:00:00Z","user":"u","text":"x"}` + "\n",
	}
	for _, input := range cases {
		_, err := drain(NewJSONLReader(strings.NewReader(input)))
		if err == nil {
			t.Errorf("malformed input %q accepted", input)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != NoDate {
		t.Error("zero clock should read NoDate")
	}
	// A date before 1970 is negative, and still after NoDate.
	t1 := time.Date(1960, 9, 1, 12, 0, 0, 0, time.UTC).UnixNano()
	t0 := t1 - int64(time.Hour)
	c.AdvanceTo(t1)
	c.AdvanceTo(t0) // late-arriving older message
	if c.Now() != t1 {
		t.Errorf("clock went backwards: %v", c.Now())
	}
}

// Property: JSONL round trip preserves arbitrary valid text content,
// including quotes, unicode and control characters JSON must escape.
func TestJSONLRoundTripProperty(t *testing.T) {
	date := time.Date(2009, 8, 15, 6, 30, 0, 0, time.UTC)
	f := func(text string, idRaw uint32) bool {
		if strings.TrimSpace(text) == "" || strings.ContainsAny(text, "\n\r") {
			return true // not a valid single-line message; skip
		}
		in := tweet.Parse(tweet.ID(idRaw), "quickuser", date, text)
		var buf bytes.Buffer
		if _, err := WriteJSONL(&buf, newSliceSource([]*tweet.Message{in})); err != nil {
			return false
		}
		out, err := drain(NewJSONLReader(&buf))
		if err != nil || len(out) != 1 {
			return false
		}
		return reflect.DeepEqual(in, out[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
