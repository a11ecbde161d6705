// Package ctxflow flags functions that take a context.Context and
// then call context.Background() or context.TODO() in their body: the
// fresh context severs the caller's cancellation and deadline chain,
// so a cancelled session keeps running engine work it can never
// deliver. A function that received a context must thread it (or a
// child via WithCancel/WithTimeout) through every call it makes.
//
// Functions without a context parameter are exempt: they are where a
// context chain starts — a command's main, an example, a test — and
// the registry's deliberate run-context decoupling (the
// context.Background default that WithBaseContext overrides) happens
// in its constructor, not under a request context. Every engine
// operation itself takes a context, so no library call needs to
// inject one.
package ctxflow

import (
	"go/ast"
	"go/types"

	"servet/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background/TODO inside functions that already take a Context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftyp, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !takesContext(pass.TypesInfo, ftyp) {
				return true
			}
			checkBody(pass, body)
			return true
		})
	}
	return nil
}

// takesContext reports whether the function type has a
// context.Context parameter.
func takesContext(info *types.Info, ftyp *ast.FuncType) bool {
	if ftyp.Params == nil {
		return false
	}
	for _, field := range ftyp.Params.List {
		if t := info.Types[field.Type].Type; t != nil && analysis.IsNamedType(t, "context", "Context") {
			return true
		}
	}
	return false
}

// checkBody flags Background/TODO calls, skipping nested function
// literals that take their own context (they are their own scope).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && takesContext(pass.TypesInfo, lit.Type) {
			return false // judged on its own by run
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"Background", "TODO"} {
			if analysis.CalleeIsPkgFunc(pass.TypesInfo, call, "context", name) {
				pass.Reportf(call.Pos(), "context.%s inside a function that takes a context.Context: thread the parameter (or a WithCancel/WithTimeout child) instead of severing the caller's cancellation chain", name)
			}
		}
		return true
	})
}
