package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// Dump writes an indented rendering of the AutoTree — the textual
// counterpart of the paper's Figures 4, 7(b) and 8. Each line shows the
// node kind, its vertex set (elided beyond maxVerts vertices), a
// certificate prefix, and markers grouping equal-certificate siblings
// (the symmetric subtrees SSM exploits).
func (t *Tree) Dump(w io.Writer, maxVerts int) error {
	if t.Root == nil {
		_, err := fmt.Fprintln(w, "(empty tree)")
		return err
	}
	if maxVerts <= 0 {
		maxVerts = 8
	}
	return dumpNode(w, t.Root, 0, maxVerts)
}

func dumpNode(w io.Writer, nd *Node, depth, maxVerts int) error {
	indent := strings.Repeat("  ", depth)
	divide := ""
	if nd.Divide != DividedNone {
		divide = " divide=" + nd.Divide.String()
	}
	if _, err := fmt.Fprintf(w, "%s%s%s verts=%s cert=%s\n",
		indent, nd.Kind, divide, vertsString(nd.Verts, maxVerts), certPrefix(nd.Cert)); err != nil {
		return err
	}
	for i, c := range nd.Children {
		marker := ""
		if i > 0 && bytes.Equal(c.Cert, nd.Children[i-1].Cert) {
			marker = "≅ " // symmetric to the previous sibling
		}
		if marker != "" {
			if _, err := fmt.Fprintf(w, "%s  %s\n", indent, marker+"(symmetric sibling)"); err != nil {
				return err
			}
		}
		if err := dumpNode(w, c, depth+1, maxVerts); err != nil {
			return err
		}
	}
	return nil
}

func vertsString(vs []int, maxVerts int) string {
	if len(vs) <= maxVerts {
		return strings.Trim(fmt.Sprint(vs), "[]")
	}
	head := fmt.Sprint(vs[:maxVerts])
	return fmt.Sprintf("%s…+%d", strings.Trim(head, "[]"), len(vs)-maxVerts)
}

func certPrefix(cert []byte) string {
	if len(cert) > 4 {
		cert = cert[:4]
	}
	return hex.EncodeToString(cert)
}
