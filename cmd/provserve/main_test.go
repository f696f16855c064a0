package main

import (
	"strings"
	"testing"
)

// TestValidate pins the one set of flag rules every mode shares.
func TestValidate(t *testing.T) {
	cases := []struct {
		name              string
		shards            int
		follow, ckpt, wal string
		wantErr           string // substring; "" means valid
	}{
		{"serial in memory", 1, "", "", "", ""},
		{"serial plain checkpoint", 1, "", "e.ckpt", "", ""},
		{"serial durable", 1, "", "e.ckpt", "wal", ""},
		{"sharded in memory", 4, "", "", "", ""},
		{"sharded durable", 4, "", "m.json", "tree", ""},
		{"follower", 1, "http://leader:8080", "f.ckpt", "fwal", ""},

		{"wal without ckpt", 1, "", "", "wal", "-wal requires -ckpt"},
		{"sharded wal without ckpt", 2, "", "", "tree", "-wal requires -ckpt"},
		{"sharded ckpt without wal", 2, "", "m.json", "", "-ckpt requires -wal"},
		{"follower sharded", 2, "http://leader:8080", "f.ckpt", "fwal", "-follow requires -shards 1"},
		{"follower without state", 1, "http://leader:8080", "", "", "-follow requires -ckpt and -wal"},
		{"follower without wal", 1, "http://leader:8080", "f.ckpt", "", "-follow requires -ckpt and -wal"},
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
