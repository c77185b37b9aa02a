package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RunAnalyzer runs one analyzer over one loaded package and returns its
// active (unsuppressed) diagnostics sorted by position. Drivers that need
// suppressed findings and cross-package facts use RunAnalyzerFacts.
func RunAnalyzer(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	diags, err := RunAnalyzerFacts(a, fset, files, pkg, info, nil)
	if err != nil {
		return nil, err
	}
	active := diags[:0]
	for _, d := range diags {
		if !d.Suppressed {
			active = append(active, d)
		}
	}
	return active, nil
}
