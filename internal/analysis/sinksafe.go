package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// SinkSafe is the fpsinksafe analyzer. Engine event sinks run
// synchronously on the pushing goroutine (serial engine) or the merger
// (sharded engine): a sink that blocks stalls the whole pipeline, and a
// sink that calls back into the engine can deadlock on the stats mutex.
// The analyzer finds every sink implementation — methods named
// HandleEvent taking a single Event parameter, and functions converted
// to a SinkFunc type — and walks it (transitively, within its package)
// for:
//
//   - channel sends outside a select with a default case (unbounded
//     blocking on a slow consumer),
//   - sync.Mutex/sync.RWMutex acquisition and calls back into
//     Engine/Sharded/Trainer methods,
//   - direct I/O (os/net/bufio file and socket calls, fmt.Fprint*),
//     and time.Sleep.
//
// A sink that is *documented* to block (the CLI printers) carries
// //fp:mayblock with a justification on the function, which exempts it.
var SinkSafe = &analysis.Analyzer{
	Name: "fpsinksafe",
	Doc:  "report blocking operations in engine event sinks",
	Run:  runSinkSafe,
}

var sinkDenyPkgs = []string{"os", "net", "bufio", "syscall"}

type sinkChecker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	lines   map[*ast.File]lineIndex
	files   map[*ast.FuncDecl]*ast.File
	checked map[*types.Func]bool
}

func runSinkSafe(pass *analysis.Pass) (interface{}, error) {
	c := &sinkChecker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		lines:   make(map[*ast.File]lineIndex),
		files:   make(map[*ast.FuncDecl]*ast.File),
		checked: make(map[*types.Func]bool),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
					c.files[fd] = file
				}
			}
		}
	}

	// Sink methods: HandleEvent(ev Event) with no results.
	for fn, fd := range c.decls {
		if fn.Name() == "HandleEvent" && isSinkSignature(fn) {
			c.checkSink(fn, fd, fn.FullName())
		}
	}
	// SinkFunc conversions: SinkFunc(f) or SinkFunc(func(ev Event){...}).
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			named, ok := tv.Type.(interface{ Obj() *types.TypeName })
			if !ok || named.Obj().Name() != "SinkFunc" {
				return true
			}
			switch arg := ast.Unparen(call.Args[0]).(type) {
			case *ast.FuncLit:
				c.checkFuncLit(arg, file, "SinkFunc literal")
			default:
				if fn := calleeObj(pass.TypesInfo, arg); fn != nil {
					if fd, ok := c.decls[fn]; ok {
						c.checkSink(fn, fd, fn.FullName())
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// isSinkSignature matches func (T) HandleEvent(ev Event) — the engine
// Sink shape (matched structurally so the analyzer stays
// project-invariant and fixture-testable).
func isSinkSignature(fn *types.Func) bool {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	pt := sig.Params().At(0).Type()
	named, ok := pt.(interface{ Obj() *types.TypeName })
	return ok && named.Obj().Name() == "Event" && types.IsInterface(pt)
}

func (c *sinkChecker) lineIndexFor(file *ast.File) lineIndex {
	ix, ok := c.lines[file]
	if !ok {
		ix = fileLines(c.pass.Fset, file)
		c.lines[file] = ix
	}
	return ix
}

func (c *sinkChecker) checkSink(fn *types.Func, fd *ast.FuncDecl, label string) {
	if c.checked[fn] {
		return
	}
	c.checked[fn] = true
	if d, ok := funcDirective(fd, "mayblock"); ok {
		if d.Reason == "" {
			c.pass.Report(analysis.Diagnostic{Pos: d.Pos,
				Message: "fp:mayblock annotation requires a justification"})
		}
		return
	}
	if fd.Body == nil {
		return
	}
	c.checkBody(fd.Body, c.lineIndexFor(c.files[fd]), label)
}

func (c *sinkChecker) checkFuncLit(lit *ast.FuncLit, file *ast.File, label string) {
	ix := c.lineIndexFor(file)
	if _, ok := ix.at(c.pass.Fset, lit.Pos(), "mayblock"); ok {
		return
	}
	c.checkBody(lit.Body, ix, label)
}

func (c *sinkChecker) report(pos token.Pos, label, format string, args ...interface{}) {
	c.pass.Report(analysis.Diagnostic{Pos: pos,
		Message: fmt.Sprintf("sink %s: %s (sinks run on the engine's emit goroutine; annotate //fp:mayblock if blocking is the documented contract)", label, fmt.Sprintf(format, args...))})
}

func (c *sinkChecker) checkBody(body *ast.BlockStmt, ix lineIndex, label string) {
	// Sends inside a select that has a default case are non-blocking.
	guarded := make(map[*ast.SendStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cl := range sel.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		ast.Inspect(sel, func(m ast.Node) bool {
			if s, ok := m.(*ast.SendStmt); ok {
				guarded[s] = true
			}
			return true
		})
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if !guarded[n] {
				c.report(n.Pos(), label, "channel send without a select/default guard")
			}
		case *ast.CallExpr:
			c.checkSinkCall(n, ix, label)
		}
		return true
	})
}

func (c *sinkChecker) checkSinkCall(call *ast.CallExpr, ix lineIndex, label string) {
	callee := calleeOf(c.pass.TypesInfo, call)
	if callee == nil {
		return
	}
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		rt := recv.Type().String()
		switch callee.Name() {
		case "Lock", "RLock":
			if strings.HasSuffix(rt, "sync.Mutex") || strings.HasSuffix(rt, "sync.RWMutex") {
				c.report(call.Pos(), label, "acquires %s", strings.TrimPrefix(rt, "*"))
				return
			}
		}
		base := rt
		base = strings.TrimPrefix(base, "*")
		if i := strings.LastIndexByte(base, '.'); i >= 0 {
			pkgPath := base[:i]
			typ := base[i+1:]
			if (typ == "Engine" || typ == "Sharded" || typ == "Trainer") && strings.HasSuffix(pkgPath, "engine") {
				c.report(call.Pos(), label, "calls back into %s.%s (stats-mutex deadlock risk)", typ, callee.Name())
				return
			}
		}
	}
	pkg := callee.Pkg()
	if pkg == nil {
		return
	}
	path := pkg.Path()
	qname := path + "." + callee.Name()
	if qname == "time.Sleep" {
		c.report(call.Pos(), label, "time.Sleep stalls the event stream")
		return
	}
	if path == "fmt" && strings.HasPrefix(callee.Name(), "Fprint") {
		c.report(call.Pos(), label, "direct I/O via %s", qname)
		return
	}
	for _, deny := range sinkDenyPkgs {
		if path == deny || strings.HasPrefix(path, deny+"/") {
			c.report(call.Pos(), label, "direct I/O via %s", qname)
			return
		}
	}
	// Descend into same-package helpers so I/O behind one hop is caught.
	if pkg == c.pass.Pkg {
		if fd, ok := c.decls[callee]; ok {
			if !c.checked[callee] {
				c.checked[callee] = true
				if _, ok := funcDirective(fd, "mayblock"); ok {
					return
				}
				if fd.Body != nil {
					c.checkBody(fd.Body, c.lineIndexFor(c.files[fd]), label)
				}
			}
		}
	}
}

// calleeObj resolves an arbitrary expression naming a function.
func calleeObj(info *types.Info, e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}
