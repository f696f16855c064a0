package stream

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"provex/internal/tweet"
)

var lineErr = regexp.MustCompile(`^stream: line ([0-9]+): `)

// FuzzJSONL feeds arbitrary bytes to the JSONL reader. It must never
// panic; every error names a line of the input, and that line fails on
// its own too; and when the input is valid UTF-8, every message read
// comes back field for field through WriteJSONL and a second reader.
func FuzzJSONL(f *testing.F) {
	f.Add(`{"id":1,"date":"2009-08-01T00:00:00Z","user":"u","text":"hello #world http://bit.ly/x"}`)
	f.Add("{\"id\":2,\"date\":\"2009-08-01T00:00:01.5+02:00\",\"user\":\"v\",\"text\":\"RT @u: voilà\"}\n\n" +
		`{"id":3,"date":"2009-08-01T00:00:02Z","user":"w","text":"à\n\"q\""}`)
	f.Add("{\"id\":4,\"date\":\"2009-08-01T00:00:00Z\",\"user\":\"u\",\"text\":\"x\"}\r\nnot json\n")
	f.Add(`{"id":5,"date":"NOT A DATE","user":"u","text":"x"}`)
	f.Add(`{"id":6,"date":"0000-01-01T00:00:00+01:00","user":"u","text":"x"}`)
	f.Add("null\n{}\n[]\n\"s\"\n")
	f.Add("\x80\xfe\xff\n{\"text\":\"\xc3\"}")

	f.Fuzz(func(t *testing.T, input string) {
		r := NewJSONLReader(strings.NewReader(input))
		for {
			m, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				checkNamesLine(t, input, err)
				return
			}
			if utf8.ValidString(input) {
				checkRoundTrip(t, m)
			}
		}
	})
}

// checkNamesLine fails t unless err names a line of input that a fresh
// reader also rejects on its own.
func checkNamesLine(t *testing.T, input string, err error) {
	t.Helper()
	sub := lineErr.FindStringSubmatch(err.Error())
	if sub == nil {
		t.Fatalf("error names no line: %v", err)
	}
	n, _ := strconv.Atoi(sub[1])
	lines := strings.Split(input, "\n")
	if n < 1 || n > len(lines) {
		t.Fatalf("error names line %d of %d: %v", n, len(lines), err)
	}
	if _, alone := NewJSONLReader(strings.NewReader(lines[n-1])).Next(); alone == nil || errors.Is(alone, io.EOF) {
		t.Fatalf("error names line %d, which reads on its own: %v", n, err)
	}
}

func checkRoundTrip(t *testing.T, m *tweet.Message) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteJSONL(&buf, newSliceSource([]*tweet.Message{m})); err != nil {
		t.Fatalf("WriteJSONL(%+v): %v", m, err)
	}
	written := buf.String()
	got, err := drain(NewJSONLReader(&buf))
	if err != nil || len(got) != 1 {
		t.Fatalf("reading back %q: %d messages, %v", written, len(got), err)
	}
	if !reflect.DeepEqual(got[0], m) {
		t.Fatalf("message changed through WriteJSONL:\n  in:  %+v\n  out: %+v", m, got[0])
	}
}
