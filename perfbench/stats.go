package main

import (
	"bufio"
	"bytes"
	"math"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median returns the median of xs, averaging the middle pair of an even
// count (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// parseProm returns the unlabelled samples of a Prometheus text exposition.
func parseProm(text []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}
