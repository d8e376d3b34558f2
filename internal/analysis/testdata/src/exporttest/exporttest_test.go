package exporttest_test

import (
	"testing"

	"fixture/exporttest"
	"fixture/exporttest/use"
)

func TestTwice(t *testing.T) {
	var c exporttest.Counter
	use.Twice(&c)
	if n := exporttest.CountOf(&c); n != 2 {
		t.Fatalf("count %d, want 2", n)
	}
}
