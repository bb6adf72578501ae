// Command teamnet-doccheck enforces two floors on internal/ and fails the
// build — exit status 1, one line per offender — when either is broken, so
// `make docs` gates CI on them.
//
// Documentation: every internal package carries package-level godoc.
//
// Reachability: every package-level func, method, type, var and const in
// the non-test files of internal/ has a caller. The check type-checks the
// whole module (go/types, standard library only) under both the amd64 and
// the arm64 file sets and flags a declaration that neither non-test code
// nor another package's tests reach, unless it is a method satisfying an
// interface its type implements or an allowlist entry (reach.go) gives the
// reason it stays.
//
//	teamnet-doccheck ./internal
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "./internal"
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "teamnet-doccheck:", err)
		os.Exit(2)
	}
	missing, err := check(root)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range missing {
		fmt.Fprintf(os.Stderr, "missing package documentation: %s\n", pkg)
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		fatal(err)
	}
	// root is the module's internal/ directory, so its parent is the module.
	flagged, problems, err := unreachable(filepath.Dir(abs), allowlist)
	if err != nil {
		fatal(err)
	}
	for _, f := range flagged {
		fmt.Fprintf(os.Stderr, "no caller: %s\n", f)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(missing)+len(flagged)+len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("doccheck: all packages documented, every declaration reached (%d allowlisted)\n", len(allowlist))
}

// check walks root for directories containing non-test Go files and returns
// the directories whose package lacks a package comment.
func check(root string) ([]string, error) {
	dirs := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var missing []string
	for dir := range dirs {
		ok, err := hasPackageDoc(dir)
		if err != nil {
			return nil, err
		}
		if !ok {
			missing = append(missing, dir)
		}
	}
	sort.Strings(missing)
	return missing, nil
}

// hasPackageDoc reports whether any non-test file in dir carries a package
// comment (godoc convention: a comment immediately preceding the package
// clause in at least one file).
func hasPackageDoc(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return false, fmt.Errorf("parse %s: %w", filepath.Join(dir, name), err)
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			return true, nil
		}
	}
	return false, nil
}
