package main

import (
	"flag"
	"reflect"
	"testing"

	"pcmap/internal/cli"
)

// TestFlagSurface pins pcmaplint's command-line interface.
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("pcmaplint", flag.ContinueOnError)
	defineFlags(fs)
	want := []string{"dir", "fix", "json", "summary"}
	if got := cli.Surface(fs); !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
}
