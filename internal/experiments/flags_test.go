package experiments

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSharedFlagsDeclaredOnce parses every front end and fails when one
// declares a shared flag itself instead of binding it through Flags.Bind:
// the copies drift (atacctl submit lost -hybrid-radius, and two binaries
// kept listing four of the six networks). A same-named flag that means
// something else is listed with its meaning.
func TestSharedFlagsDeclaredOnce(t *testing.T) {
	shared := map[string]bool{}
	new(Flags).declare().VisitAll(func(fl *flag.Flag) { shared[fl.Name] = true })
	different := map[string]string{
		"atacsim/retries": "fault retransmissions per flit (config.Fault.MaxRetries)",
		"atacctl/retries": "HTTP retries per request (serve.Client.Retries)",
	}
	files, err := filepath.Glob("../../cmd/*/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no front ends found: %v", err)
	}
	fset := token.NewFileSet()
	declared := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		bin := filepath.Base(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			name, ok := flagDeclName(n)
			if !ok {
				return true
			}
			declared++
			if shared[name] && different[bin+"/"+name] == "" {
				t.Errorf("%s: -%s is declared here; bind it with experiments.Flags", fset.Position(n.Pos()), name)
			}
			return true
		})
	}
	if declared == 0 {
		t.Fatal("found no flag declarations: the parser lint is blind")
	}
}

// flagDeclName reports the flag name a flag.X / FlagSet.X declaration
// call passes as a string literal.
func flagDeclName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	arg := 0
	switch sel.Sel.Name {
	case "Bool", "Int", "Int64", "Uint", "Uint64", "String", "Float64", "Duration", "Func", "BoolFunc":
	case "BoolVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "StringVar", "Float64Var", "DurationVar", "Var", "TextVar":
		arg = 1
	default:
		return "", false
	}
	if len(call.Args) <= arg {
		return "", false
	}
	lit, ok := call.Args[arg].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	name, err := strconv.Unquote(lit.Value)
	return name, err == nil
}

// TestFlagsBind: each binary's defaults are the values it prefills, and a
// parsed flag lands in the Geometry or Runner field it names.
func TestFlagsBind(t *testing.T) {
	r := &Runner{Retries: 2}
	f := Flags{Geometry: Geometry{Cores: 64, Seed: 42}, Runner: r, Grace: 15 * time.Second}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Bind(fs, "cores", "seed", "net", "hybrid-radius", "retries", "grace", "q")
	if d := fs.Lookup("cores").DefValue; d != "64" {
		t.Errorf("-cores default %q, want the prefilled 64", d)
	}
	if fs.Lookup("jobs") != nil {
		t.Error("an unrequested shared flag was bound")
	}
	if err := fs.Parse([]string{"-net", "hybrid", "-hybrid-radius", "2", "-retries", "5", "-q"}); err != nil {
		t.Fatal(err)
	}
	want := Geometry{Net: "hybrid", Cores: 64, Seed: 42, HybridRadius: 2}
	if f.Geometry != want || r.Retries != 5 || !f.Quiet || f.Grace != 15*time.Second {
		t.Errorf("parsed into %+v, retries %d, quiet %v, grace %v", f.Geometry, r.Retries, f.Quiet, f.Grace)
	}
	defer func() {
		if recover() == nil {
			t.Error("binding an unknown shared flag did not panic")
		}
	}()
	f.Bind(flag.NewFlagSet("test", flag.ContinueOnError), "no-such-flag")
}
