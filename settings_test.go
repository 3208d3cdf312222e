package vqoe_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settingPackages are the packages whose settings the guard checks: the
// serving stack, the learners, the generators and the experiment suite.
// Every exported field of an exported struct named *Config, *Options,
// *Objectives, *Thresholds or *Scale declared in one of them is a
// setting, and a setting must be written by some non-test code outside
// its own package (cmd/, bench/ and examples/ count). A value no program
// sets is a constant.
var settingPackages = []string{
	"engine", "pipeline", "slo", "flight", "qualitymon", "cohort", "wire", "sessionizer",
	"ml", "core", "workload", "player", "experiments",
}

const benchReads = "bench/layers.go reads it from engine.DefaultConfig, so removing it changes the benchmark"
const constructorArg = "a constructor parameter: every caller sets it through DefaultConfig's argument"
const cohortFixtures = "set only by e2e fixtures: the cohort, flight and fused-door ones concentrate cohorts, the drift ones match the training mix"

// uncalledSettings are the settings allowed to have no caller, and why.
var uncalledSettings = map[string]string{
	"engine.Config.IdleGapSec":              benchReads,
	"engine.Config.MinChunks":               benchReads,
	"engine.Config.EvictSlackSec":           benchReads,
	"workload.Config.Sessions":              constructorArg,
	"player.Config.Mode":                    constructorArg,
	"workload.LiveConfig.DeviceWeights":     cohortFixtures,
	"workload.LiveConfig.QualityCapWeights": cohortFixtures,
}

// TestEverySettingHasACaller type-checks the module's non-test code and
// fails on any setting no program writes, by composite-literal key or by
// assignment, outside its declaring package. An assignment through a
// selector chain (cfg.Forest.Trees = 30) writes every field on the way.
func TestEverySettingHasACaller(t *testing.T) {
	m := loadModule(t)

	settings := map[*types.Var]string{}
	for _, name := range settingPackages {
		scope := m.pkgs["vqoe/internal/"+name].Scope()
		for _, typeName := range scope.Names() {
			tn, ok := scope.Lookup(typeName).(*types.TypeName)
			if !ok || !tn.Exported() || !isSettingType(typeName) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					settings[f] = name + "." + typeName + "." + f.Name()
				}
			}
		}
	}

	written := map[*types.Var]bool{}
	write := func(pkg string, obj types.Object) {
		if f, ok := obj.(*types.Var); ok && f.IsField() && f.Pkg().Path() != pkg {
			written[f] = true
		}
	}
	for path, files := range m.files {
		info := m.infos[path]
		for _, file := range files {
			ast.Inspect(file, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						write(path, info.Uses[key])
					}
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				}
				for _, e := range lhs {
					for sel, ok := e.(*ast.SelectorExpr); ok && info.Selections[sel] != nil; sel, ok = sel.X.(*ast.SelectorExpr) {
						write(path, info.Selections[sel].Obj())
					}
				}
				return true
			})
		}
	}

	t.Logf("%d settings checked", len(settings))
	var uncalled []string
	for f, name := range settings {
		if !written[f] && uncalledSettings[name] == "" {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s is set by no program: make it a constant, or give it a caller", name)
	}
	for name := range uncalledSettings {
		found := false
		for f, n := range settings {
			if n == name {
				found = true
				if written[f] {
					t.Errorf("%s has a caller now: take it off the allowlist", name)
				}
			}
		}
		if !found {
			t.Errorf("%s is no longer declared: take it off the allowlist", name)
		}
	}
}

func isSettingType(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Objectives", "Thresholds", "Scale"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// module is the type-checked non-test code of every package in the
// module, keyed by import path; the standard library comes from export
// data.
type module struct {
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	infos map[string]*types.Info
}

func loadModule(t *testing.T) *module {
	t.Helper()
	fset := token.NewFileSet()
	m := &module{
		fset:  fset,
		std:   importer.ForCompiler(fset, "gc", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		infos: map[string]*types.Info{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if matches, _ := filepath.Glob(filepath.Join(path, "*.go")); len(matches) > 0 {
			m.dirs[filepath.ToSlash(filepath.Join("vqoe", path))] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range m.dirs {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// Import type-checks a module package from its directory on first use
// and hands every other path to the standard-library importer.
func (m *module) Import(path string) (*types.Package, error) {
	if pkg := m.pkgs[path]; pkg != nil {
		return pkg, nil
	}
	dir, ok := m.dirs[path]
	if !ok {
		return m.std.Import(path)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path], m.infos[path] = pkg, files, info
	return pkg, nil
}
