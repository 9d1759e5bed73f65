package divflow

import (
	"bufio"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the documents whose backticked names TestDocSymbols holds to
// the code. CHANGES.md and ROADMAP.md are history and plans: they may name
// what no longer, or does not yet, exist.
var docFiles = []string{"README.md", ".claude/skills/verify/SKILL.md"}

// TestDocSymbols requires every backticked name in docFiles to resolve: Go
// names against the declarations of the root module and of bench/ (read, not
// built) or, for a standard-library package, against GOROOT's sources; test
// names against the test functions; divflow_* series against the exported
// metrics schema; dotted bench metrics against BENCHMARK.json; flags against
// the flag calls of cmd/divflowd, bench/main.go and the test files, or `go
// help testflag`/`go help build`; and repository paths against the tree. A
// mention followed by "(deleted …)", "(removed …)", "(renamed …)" or
// "(historical …)" is skipped.
func TestDocSymbols(t *testing.T) {
	syms, err := loadDocSymbols(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range checkDocSymbols(doc, string(text), syms) {
			t.Error(p)
		}
	}
}

// TestDocSymbolsFlagsStaleTokens plants one stale token of each kind the
// check resolves and expects a failure naming the token and its line, and
// a historically marked token to pass.
func TestDocSymbolsFlagsStaleTokens(t *testing.T) {
	syms := &docSymbols{
		pkgs:    map[string]map[string]bool{"core": {"MinMaxWeightedFlow": true, "Residual": true}},
		members: map[string]map[string]bool{"core.Residual": {"DeadlineFeasible": true}, "Residual": {"DeadlineFeasible": true}},
		names:   map[string]bool{"MinMaxWeightedFlow": true, "Residual": true, "DeadlineFeasible": true},
		keys:    map[string]bool{"jobsAccepted": true},
		tests:   map[string]bool{"TestSingleShardEquivalence": true, "TestWALRestoresParentFormat": true},
		series:  map[string]bool{"divflow_lp_solves_total": true},
		bench:   map[string]bool{"lp.exact_fallback_share": true},
		flags:   map[string]bool{"admission": true, "run": true},
		exists:  func(p string) bool { return p == "internal/core" },
	}
	good := "`core.MinMaxWeightedFlow`, `Residual.DeadlineFeasible`, `jobsAccepted`,\n" +
		"`TestSingleShardEquivalence`, `TestWAL…`, `go test -run TestWALRestores ./internal/core`,\n" +
		"`divflow_lp_solves_total{shard}`, `lp.exact_fallback_share`, `-admission=strict`,\n" +
		"`internal/core`, `online-mwf-lazy`, `Retry-After`, `\"n/d\"`, `F = F_k + F′`,\n" +
		"`-worker` (deleted in PR 40), `core.newInstance` (removed)\n" +
		"```\n`core.Gone` in a fenced block\n```\n"
	if p := checkDocSymbols("doc", good, syms); len(p) != 0 {
		t.Fatalf("resolvable or exempt tokens flagged: %q", p)
	}
	for _, tc := range []struct{ kind, text, token string }{
		{"Go name", "`core.MinMaxWeightedFlowFrom`", "core.MinMaxWeightedFlowFrom"},
		{"Go name", "`shardCensus`", "shardCensus"},
		{"Type.Method", "`Residual.BestDeadline`", "Residual.BestDeadline"},
		{"test", "`TestSingleShardEquivalent`", "TestSingleShardEquivalent"},
		{"test", "`go test -run 'TestRestart' ./internal/core`", "TestRestart"},
		{"divflow_* metric", "`divflow_deadline_missed_total`", "divflow_deadline_missed_total"},
		{"bench metric", "`lp.crossover_rate`", "lp.crossover_rate"},
		{"flag", "`-restart-stalled`", "-restart-stalled"},
		{"path", "`internal/server/worker.go`", "internal/server/worker.go"},
	} {
		text := "line one\n\nthe " + tc.kind + " " + tc.text + " (stale)\n"
		p := checkDocSymbols("doc", text, syms)
		if len(p) != 1 || !strings.Contains(p[0], "doc:3:") || !strings.Contains(p[0], "`"+tc.token+"`") {
			t.Errorf("%s: planted %s, got %q", tc.kind, tc.text, p)
		}
	}
}

// docSymbols is what a backticked token may resolve to.
type docSymbols struct {
	pkgs    map[string]map[string]bool // package name → its top-level names
	members map[string]map[string]bool // "pkg.Type" and "Type" → methods and fields
	names   map[string]bool            // every declared name: top level, method, field
	keys    map[string]bool            // JSON keys from struct tags
	tests   map[string]bool            // Test, Benchmark, Fuzz and Example functions
	series  map[string]bool            // exported divflow_* series
	bench   map[string]bool            // BENCHMARK.json metric names
	flags   map[string]bool            // flag names, without the dash
	exists  func(path string) bool     // a repository path, glob allowed

	std    map[string]string // standard-library package name → import path, loaded on first use
	goroot string
}

func loadDocSymbols(root string) (*docSymbols, error) {
	s := &docSymbols{
		pkgs:    map[string]map[string]bool{},
		members: map[string]map[string]bool{},
		names:   map[string]bool{},
		keys:    map[string]bool{},
		tests:   map[string]bool{},
		series:  map[string]bool{},
		bench:   map[string]bool{},
		flags:   map[string]bool{},
		std:     map[string]string{},
		exists: func(p string) bool {
			m, _ := filepath.Glob(filepath.Join(root, p))
			return len(m) > 0
		},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(p, "_test.go")
		s.addFile(f, isTest)
		rel := filepath.ToSlash(p)
		if isTest || strings.HasPrefix(rel, "cmd/divflowd/") || rel == "bench/main.go" {
			s.addFlags(f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	schema, err := os.Open(filepath.Join(root, "internal/server/testdata/metrics_schema.txt"))
	if err != nil {
		return nil, err
	}
	defer schema.Close()
	sc := bufio.NewScanner(schema)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 2 {
			s.series[f[0]] = true
			if f[1] == "histogram" {
				for _, suf := range []string{"_bucket", "_sum", "_count"} {
					s.series[f[0]+suf] = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, err
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		s.bench[m.Name] = true
	}

	goroot, err := exec.Command("go", "env", "GOROOT").Output()
	if err != nil {
		return nil, fmt.Errorf("go env GOROOT: %v", err)
	}
	s.goroot = strings.TrimSpace(string(goroot))
	flagLine := regexp.MustCompile(`(?m)^\t-([A-Za-z][\w.-]*)`)
	for _, topic := range []string{"testflag", "build"} {
		out, err := exec.Command("go", "help", topic).Output()
		if err != nil {
			return nil, fmt.Errorf("go help %s: %v", topic, err)
		}
		for _, m := range flagLine.FindAllStringSubmatch(string(out), -1) {
			s.flags[m[1]] = true
		}
	}
	return s, nil
}

// addFile records a parsed file's declarations. Test packages (x_test) file
// their names under x.
func (s *docSymbols) addFile(f *ast.File, isTest bool) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	top := s.pkgs[pkg]
	if top == nil {
		top = map[string]bool{}
		s.pkgs[pkg] = top
	}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(p, "/"); !strings.Contains(first, ".") && first != "divflow" {
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			s.std[name] = p
		}
	}
	s.addDecls(pkg, top, f.Decls)
	if !isTest {
		return
	}
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
			for _, pre := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, pre) {
					s.tests[fn.Name.Name] = true
				}
			}
		}
	}
}

func (s *docSymbols) addDecls(pkg string, top map[string]bool, decls []ast.Decl) {
	member := func(typ, name string) {
		for _, k := range []string{pkg + "." + typ, typ} {
			if s.members[k] == nil {
				s.members[k] = map[string]bool{}
			}
			s.members[k][name] = true
		}
		s.names[name] = true
	}
	for _, d := range decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				top[d.Name.Name] = true
				s.names[d.Name.Name] = true
			} else if typ := recvType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						top[n.Name] = true
						s.names[n.Name] = true
					}
				case *ast.TypeSpec:
					top[sp.Name.Name] = true
					s.names[sp.Name.Name] = true
					var fields *ast.FieldList
					switch tt := sp.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(sp.Name.Name, n.Name)
						}
						if len(fl.Names) == 0 {
							if emb := recvType(fl.Type); emb != "" {
								member(sp.Name.Name, emb)
							}
						}
						if fl.Tag != nil {
							tag, _ := strconv.Unquote(fl.Tag.Value)
							if key, _, _ := strings.Cut(reflectTag(tag, "json"), ","); key != "" && key != "-" {
								s.keys[key] = true
							}
						}
					}
				}
			}
		}
	}
}

// recvType names the type of a receiver or an embedded field: T, *T, T[P],
// pkg.T.
func recvType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvType(e.X)
	case *ast.IndexExpr:
		return recvType(e.X)
	case *ast.IndexListExpr:
		return recvType(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

func reflectTag(tag, key string) string {
	for _, part := range strings.Fields(tag) {
		if k, v, ok := strings.Cut(part, ":"); ok && k == key {
			v, _ = strconv.Unquote(v)
			return v
		}
	}
	return ""
}

// addFlags records the names of flag.X("name", …) and flag.XVar(p, "name",
// …) calls.
func (s *docSymbols) addFlags(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || x.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) > arg {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				s.flags[name] = true
			}
		}
		return true
	})
}

// pkg returns the top-level names of the package called name: the repo's,
// else the standard library's, parsed from GOROOT on first use.
func (s *docSymbols) pkg(name string) map[string]bool {
	if top, ok := s.pkgs[name]; ok {
		return top
	}
	imp, ok := s.std[name]
	if !ok {
		return nil
	}
	delete(s.std, name)
	dir := filepath.Join(s.goroot, "src", filepath.FromSlash(imp))
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	top := map[string]bool{}
	s.pkgs[name] = top
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		s.addDecls(name, top, f.Decls)
	}
	return top
}

// resolveChain resolves pkg.Name, pkg.Type.Member or Type.Member.
func (s *docSymbols) resolveChain(ch []string) bool {
	if top := s.pkg(ch[0]); top[ch[1]] {
		return len(ch) == 2 || len(ch) == 3 && s.members[ch[0]+"."+ch[1]][ch[2]]
	}
	return len(ch) == 2 && s.members[ch[0]][ch[1]]
}

var (
	docFence      = regexp.MustCompile("^\\s*(```|~~~)")
	docBackticks  = regexp.MustCompile("`+")
	docHistorical = regexp.MustCompile(`^\s*\((deleted|removed|renamed|historical)\b`)
	docQuoted     = regexp.MustCompile(`"[^"]*"`)
	docDerefSel   = regexp.MustCompile(`\(\*?([A-Za-z_][\w.]*)\)\.`)
	docSeries     = regexp.MustCompile(`divflow_[a-z0-9_*]+`)
	docName       = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*`)
	docTestName   = regexp.MustCompile(`^(Test|Benchmark|Fuzz|Example)([A-Z0-9_]|$)`)
	docPathRoot   = regexp.MustCompile(`^(internal|cmd|bench|scripts|examples|testdata|\.github)/\S*$`)
	docFileExt    = map[string]bool{"go": true, "txt": true, "json": true, "md": true, "log": true, "sh": true, "yml": true, "golden": true, "ndjson": true}
)

// checkDocSymbols returns one "doc:line: `token`: reason" for each
// backticked token in text that does not resolve against s. Fenced code
// blocks are not read.
func checkDocSymbols(doc, text string, s *docSymbols) []string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		if docFence.MatchString(l) {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	text = strings.Join(lines, "\n")

	var problems []string
	runs := docBackticks.FindAllStringIndex(text, -1)
	for i := 0; i < len(runs); i++ {
		open := runs[i]
		j := i + 1
		for j < len(runs) && runs[j][1]-runs[j][0] != open[1]-open[0] {
			j++
		}
		if j == len(runs) {
			break
		}
		closing := runs[j]
		i = j
		if docHistorical.MatchString(text[closing[1]:]) {
			continue
		}
		line := 1 + strings.Count(text[:open[0]], "\n")
		span := strings.Join(strings.Fields(text[open[1]:closing[0]]), " ")
		for _, p := range checkSpan(span, s) {
			problems = append(problems, fmt.Sprintf("%s:%d: %s", doc, line, p))
		}
	}
	return problems
}

// checkSpan checks the tokens of one code span.
func checkSpan(span string, s *docSymbols) []string {
	if strings.HasPrefix(span, "-") && len(span) > 1 {
		word, _, _ := strings.Cut(span, " ")
		name, _, _ := strings.Cut(strings.TrimLeft(word, "-"), "=")
		if name != "" && unicode.IsLetter(rune(name[0])) && !s.flags[name] {
			return []string{fmt.Sprintf("`%s`: no such flag", word)}
		}
		return nil
	}
	if docPathRoot.MatchString(span) {
		if !s.exists(strings.TrimSuffix(span, "/")) {
			return []string{fmt.Sprintf("`%s`: no such path", span)}
		}
		return nil
	}
	var problems []string
	span = docQuoted.ReplaceAllString(span, `""`)
	for _, m := range docSeries.FindAllString(span, -1) {
		if !matchAny(s.series, m) {
			problems = append(problems, fmt.Sprintf("`%s`: not in metrics_schema.txt", m))
		}
	}
	span = docSeries.ReplaceAllString(span, "")
	span = docDerefSel.ReplaceAllString(span, "$1.")
	command := strings.ContainsAny(span, " |")
	for _, loc := range docName.FindAllStringIndex(span, -1) {
		tok := span[loc[0]:loc[1]]
		before, after := "", span[loc[1]:]
		if loc[0] > 0 {
			before = span[loc[0]-1 : loc[0]]
		}
		if strings.ContainsAny(before, "-/.=<$:") || strings.HasPrefix(after, "-") || strings.HasPrefix(after, "/") {
			continue
		}
		ch := strings.Split(tok, ".")
		if docFileExt[ch[len(ch)-1]] && len(ch) > 1 {
			continue
		}
		if len(ch) > 1 {
			if s.bench[tok] || s.resolveChain(ch) {
				continue
			}
			problems = append(problems, fmt.Sprintf("`%s`: no such Go name or BENCHMARK.json metric", tok))
			continue
		}
		switch {
		case docTestName.MatchString(tok):
			prefix := command || strings.HasPrefix(after, "*") || strings.HasPrefix(after, "…")
			if !s.tests[tok] && !(prefix && hasPrefixKey(s.tests, tok)) {
				problems = append(problems, fmt.Sprintf("`%s`: no such test", tok))
			}
		case strings.ToUpper(tok) == tok || strings.ToLower(tok) == tok || strings.Contains(tok, "_"):
			// acronyms, plain words and subscripted maths
		case !s.names[tok] && !s.keys[tok]:
			problems = append(problems, fmt.Sprintf("`%s`: no such Go name or JSON key", tok))
		}
	}
	return problems
}

func matchAny(set map[string]bool, pattern string) bool {
	if set[pattern] {
		return true
	}
	if !strings.Contains(pattern, "*") {
		return false
	}
	for k := range set {
		if ok, _ := path.Match(pattern, k); ok {
			return true
		}
	}
	return false
}

func hasPrefixKey(set map[string]bool, prefix string) bool {
	for k := range set {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}
