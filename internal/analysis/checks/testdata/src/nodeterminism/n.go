// Package nodeterminism exercises the determinism analyzer: wall-clock
// reads, global randomness, and map-ordered output.
package nodeterminism

import (
	"fmt"
	"log"
	"math/rand" // want `import "math/rand": use the seeded sim\.RNG`
	"sort"
	"strings"
	"time"
)

func wallClock() {
	start := time.Now()   // want `time\.Now reads the wall clock`
	_ = time.Since(start) // want `time\.Since reads the wall clock`
	_ = time.Duration(5) * time.Millisecond
}

func globalRand() int {
	return rand.Intn(10)
}

func mapOrderedOutput(m map[string]int) {
	for k, v := range m { // want `map iteration order is random: sort the keys before producing output \(sink: fmt\.Printf\)`
		fmt.Printf("%s=%d\n", k, v)
	}
	for k := range m { // want `map iteration order is random: sort the keys before producing output \(sink: log\.Println\)`
		log.Println(k)
	}
	var b strings.Builder
	for k := range m { // want `map iteration order is random: sort the keys before producing output \(sink: b\.WriteString\)`
		b.WriteString(k)
	}
}

func mapCollectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m { // collect-and-sort: not flagged
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k]) // printing from a sorted slice is fine
	}
	return keys
}

func mapPureWork(m map[string]int) int {
	total := 0
	for _, v := range m { // order-independent reduction: not flagged
		total += v
	}
	s := ""
	for k := range m { // fmt.Sprintf is pure; no sink here
		s = fmt.Sprintf("%s|%s", s, k)
	}
	_ = s
	return total
}
