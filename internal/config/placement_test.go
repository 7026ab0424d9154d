package config

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestClusterCoreIDsInvertClusterOf: each cluster's core list is exactly
// the cores ClusterOf maps to it, in ascending ID order (row by row), and
// its hub, directory-slice and memory-controller cores lie inside it, on
// cluster grids of 2 to 8 clusters a side.
func TestClusterCoreIDsInvertClusterOf(t *testing.T) {
	for _, c := range []Config{Default(), Small(), Tiny(), Sized(36, 2), Sized(144, 4), Sized(256, 4)} {
		members := make([][]int, c.Clusters())
		for core := 0; core < c.Cores; core++ {
			members[c.ClusterOf(core)] = append(members[c.ClusterOf(core)], core)
		}
		for cl, want := range members {
			if got := c.ClusterCoreIDs(cl); !slices.Equal(got, want) {
				t.Fatalf("%d cores: ClusterCoreIDs(%d) = %v, want %v", c.Cores, cl, got, want)
			}
			for _, core := range []int{c.HubCore(cl), c.DirCore(cl), c.MemCore(cl)} {
				if !slices.Contains(want, core) {
					t.Fatalf("%d cores: cluster %d places a hub, slice or controller on core %d, outside it", c.Cores, cl, core)
				}
			}
		}
	}
}

// TestSizedValid: Sized builds a valid machine with one directory slice
// and one memory controller per cluster at every size the front ends use.
func TestSizedValid(t *testing.T) {
	for _, g := range [][2]int{{16, 2}, {64, 2}, {64, 4}, {256, 4}, {1024, 4}} {
		c := Sized(g[0], g[1])
		if err := c.Validate(); err != nil {
			t.Errorf("Sized(%d, %d): %v", g[0], g[1], err)
		}
		if c.Caches.DirSlices != c.Clusters() || c.Memory.Controllers != c.Clusters() {
			t.Errorf("Sized(%d, %d): %d slices and %d controllers for %d clusters",
				g[0], g[1], c.Caches.DirSlices, c.Memory.Controllers, c.Clusters())
		}
	}
	if c := Sized(1024, 4); c != Default() {
		t.Errorf("Sized(1024, 4) differs from Default: %+v", c)
	}
}

// TestPlacementStaysInConfig is a lint: outside internal/config (and the
// separate bench module), no non-test Go divides by or takes a remainder
// of a ClusterDim. Cluster placement is derived here once (ClusterGrid,
// ClusterCore, ClusterOf and the cores built on them), so another package
// that re-derives it can drift from the machine the fabrics build.
func TestPlacementStaysInConfig(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			name := d.Name()
			if rel == "bench" || rel == filepath.Join("internal", "config") || name == "testdata" ||
				(rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.QUO || n.Op == token.REM) && isClusterDim(n.Y) {
					t.Errorf("%s: %s by ClusterDim outside internal/config; use ClusterGrid, ClusterCore or ClusterOf",
						fset.Position(n.OpPos), n.Op)
				}
			case *ast.AssignStmt:
				if (n.Tok == token.QUO_ASSIGN || n.Tok == token.REM_ASSIGN) && isClusterDim(n.Rhs[0]) {
					t.Errorf("%s: %s by ClusterDim outside internal/config; use ClusterGrid, ClusterCore or ClusterOf",
						fset.Position(n.TokPos), n.Tok)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// isClusterDim reports whether e is a (parenthesized) x.ClusterDim selector.
func isClusterDim(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "ClusterDim"
}
