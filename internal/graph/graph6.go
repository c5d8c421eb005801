package graph

import (
	"fmt"
	"strings"
	"unicode"
)

// Graph6 support: the compact ASCII format used by nauty's tools (and the
// bliss benchmark collection) to exchange undirected graphs. Only the
// standard variant for n < 2^18 is implemented, which covers every graph
// the paper's evaluation exchanges.

// ToGraph6 encodes g in graph6 format (without trailing newline).
func ToGraph6(g *Graph) (string, error) {
	n := g.N()
	if n >= 1<<18 {
		return "", fmt.Errorf("graph6: n=%d too large (max 2^18-1)", n)
	}
	var b strings.Builder
	switch {
	case n <= 62:
		b.WriteByte(byte(n + 63))
	default:
		b.WriteByte(126)
		b.WriteByte(byte((n>>12)&63) + 63)
		b.WriteByte(byte((n>>6)&63) + 63)
		b.WriteByte(byte(n&63) + 63)
	}
	// Upper triangle, column by column: bit (i, j) for i < j ordered by
	// (j, i).
	var bits []bool
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			bits = append(bits, g.HasEdge(i, j))
		}
	}
	for k := 0; k < len(bits); k += 6 {
		var x byte
		for t := 0; t < 6; t++ {
			x <<= 1
			if k+t < len(bits) && bits[k+t] {
				x |= 1
			}
		}
		b.WriteByte(x + 63)
	}
	return b.String(), nil
}

// Graph6Order reads only the size header of a graph6 string: the vertex
// count n and the offset pos of the first data byte. Leading whitespace
// is skipped, as FromGraph6 skips it. The data section spends one bit per
// vertex pair, so a caller that bounds n before decoding bounds what the
// decode allocates.
func Graph6Order(s string) (n, pos int, err error) {
	pos = len(s) - len(strings.TrimLeftFunc(s, unicode.IsSpace))
	h := s[pos:]
	if h == "" {
		return 0, 0, fmt.Errorf("graph6: empty input")
	}
	size := h[:1]
	if h[0] == 126 {
		if len(h) < 4 {
			return 0, 0, fmt.Errorf("graph6: truncated size header")
		}
		if h[1] == 126 {
			return 0, 0, fmt.Errorf("graph6: n >= 2^18 unsupported")
		}
		size = h[1:4]
		pos++
	}
	for i := 0; i < len(size); i++ {
		if size[i] < 63 || size[i] > 126 {
			return 0, 0, fmt.Errorf("graph6: bad size byte %q", size[i])
		}
		n = n<<6 | int(size[i]-63)
	}
	return n, pos + len(size), nil
}

// FromGraph6 decodes a graph6 string.
func FromGraph6(s string) (*Graph, error) {
	s = strings.TrimSpace(s)
	n, pos, err := Graph6Order(s)
	if err != nil {
		return nil, err
	}
	need := (n*(n-1)/2 + 5) / 6
	if len(s)-pos < need {
		return nil, fmt.Errorf("graph6: need %d data bytes, have %d", need, len(s)-pos)
	}
	b := NewBuilder(n)
	bitIdx := 0
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			byteIdx := pos + bitIdx/6
			c := s[byteIdx]
			if c < 63 || c > 126 {
				return nil, fmt.Errorf("graph6: bad data byte %q", c)
			}
			bit := (c - 63) >> (5 - uint(bitIdx%6)) & 1
			if bit == 1 {
				b.AddEdge(i, j)
			}
			bitIdx++
		}
	}
	return b.Build(), nil
}
