// Command itm-lint runs the project's determinism and safety analyzer
// suite (internal/analysis) over the module, using only the Go standard
// library. Diagnostics print as "file:line:col: analyzer: message"; the
// exit code is 0 when clean, 1 on any diagnostic, 2 on load failure.
//
// Usage:
//
//	itm-lint [-C dir] [-json] [packages...]
//
// With no arguments (or "./..."), every package in the module is checked,
// and only then does the whole-module deadexport check run: it cannot tell
// "unreferenced" from "referenced by a package that was not loaded".
// Arguments are directories relative to the module root.
//
// With -json, diagnostics are emitted to stdout as one JSON array sorted
// by (file, line, col, analyzer, message) — byte-identical across runs on
// the same tree. Each element has exactly these fields:
//
//	{
//	  "file": "internal/foo/bar.go",  // module-root-relative path
//	  "line": 42,                     // 1-based
//	  "col": 7,                       // 1-based byte column
//	  "analyzer": "lockguard",        // or "suppress" for allow hygiene
//	  "message": "..."
//	}
//
// A clean run emits [] (never null). Load errors still go to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"itmap/internal/analysis"
)

func main() {
	chdir := flag.String("C", ".", "directory inside the module to lint (module root is found via go.mod)")
	list := flag.Bool("analyzers", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a sorted JSON array on stdout")
	flag.Parse()

	if *list {
		for _, an := range append(analysis.All(), analysis.DeadExport(nil)) {
			fmt.Printf("%-10s %s\n", an.Name, an.Doc)
		}
		return
	}

	root, err := analysis.FindModuleRoot(*chdir)
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	var pkgs []*analysis.Package
	analyzers := analysis.All()
	args := flag.Args()
	if len(args) == 0 || (len(args) == 1 && (args[0] == "./..." || args[0] == "...")) {
		pkgs, err = loader.LoadAll()
		if err != nil {
			fatal(err)
		}
		analyzers = append(analyzers, analysis.DeadExport(pkgs))
	} else {
		for _, arg := range args {
			pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(arg)))
			if err != nil {
				fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	loadErrs := 0
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, e := range pkg.Errs {
			fmt.Fprintf(os.Stderr, "itm-lint: load %s: %v\n", pkg.PkgPath, e)
			loadErrs++
		}
		for _, d := range analysis.Run(pkg, analyzers) {
			d.Pos.Filename = relPath(root, d.Pos.Filename)
			diags = append(diags, d)
		}
	}
	// One global order regardless of package load order: the JSON schema
	// promises byte-identical output for the same tree, and the text mode
	// benefits from the same stability.
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if *jsonOut {
		emitJSON(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	switch {
	case loadErrs > 0:
		os.Exit(2)
	case len(diags) > 0:
		fmt.Fprintf(os.Stderr, "itm-lint: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// jsonDiag is the documented -json element shape.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func emitJSON(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     filepath.ToSlash(d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func relPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) {
		return rel
	}
	return path
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itm-lint:", err)
	os.Exit(2)
}
