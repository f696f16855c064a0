package main

import (
	"strings"
	"testing"
)

// TestValidate pins the one set of flag rules every mode shares. It
// sees -wal as main resolves it: <ckpt>.wal when only -ckpt is given.
func TestValidate(t *testing.T) {
	cases := []struct {
		name              string
		shards            int
		follow, ckpt, wal string
		wantErr           string // substring; "" means valid
	}{
		{"serial in memory", 1, "", "", "", ""},
		{"serial durable", 1, "", "e.ckpt", "e.ckpt.wal", ""},
		{"serial durable, wal elsewhere", 1, "", "e.ckpt", "wal", ""},
		{"sharded in memory", 4, "", "", "", ""},
		{"sharded durable", 4, "", "m.json", "m.json.wal", ""},
		{"follower", 1, "http://leader:8080", "f.ckpt", "f.ckpt.wal", ""},

		{"wal without ckpt", 1, "", "", "wal", "-wal requires -ckpt"},
		{"sharded wal without ckpt", 2, "", "", "tree", "-wal requires -ckpt"},
		{"follower sharded", 2, "http://leader:8080", "f.ckpt", "fwal", "-follow requires -shards 1"},
		{"follower without state", 1, "http://leader:8080", "", "", "-follow requires -ckpt"},
		{"follower without ckpt", 1, "http://leader:8080", "", "fwal", "-wal requires -ckpt"},
		{"negative shards", -1, "", "", "", "-shards -1"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validate(c.shards, c.follow, c.ckpt, c.wal)
			switch {
			case c.wantErr == "" && err != nil:
				t.Fatalf("validate = %v, want nil", err)
			case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
				t.Fatalf("validate = %v, want an error containing %q", err, c.wantErr)
			}
		})
	}
}
