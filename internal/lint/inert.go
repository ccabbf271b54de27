package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Inert enforces the "inert at zero" contract for optional subsystems
// (PR 9's byte-identical-when-disabled guarantee) statically, from both
// directions:
//
//  1. A struct field annotated //gcsvet:inert is an optional-feature
//     knob whose zero value must disable the feature completely. Reading
//     such a field is only allowed in contexts that stay inert when the
//     value is zero: the guard condition itself, a comparison, the body
//     of an if whose condition tests the field (or a local derived from
//     it), plumbing copies (assignment to a local, to another inert
//     field, or to a same-named field), ranging over it (a zero slice
//     ranges zero times), len/cap, returns, and the declaring type's own
//     methods. Any other consumption — passing the raw value into the
//     machinery without its zero-value guard — is flagged.
//
//  2. Every obs emission outside internal/obs must sit under an
//     Enabled() guard, generalizing nilrecv across function bodies: the
//     nil-receiver tracer makes the call itself safe, but an ungated
//     Emit still pays argument evaluation on every run.
func Inert() *Analyzer {
	a := &Analyzer{
		Name: "inert",
		Doc:  "optional //gcsvet:inert fields must be consumed behind their zero-value guard; obs emissions must be Enabled()-gated",
	}
	a.RunProgram = func(prog *Program) []Finding {
		fields := collectInertFields(prog)
		var out []Finding
		for _, p := range prog.Pkgs {
			out = append(out, checkInertPackage(p, fields)...)
		}
		return out
	}
	return a
}

const inertDirective = "gcsvet:inert"

// collectInertFields scans every module struct declaration for fields
// annotated //gcsvet:inert and returns their keys (pkgpath.Type.Field).
func collectInertFields(prog *Program) map[string]bool {
	out := make(map[string]bool)
	for _, p := range prog.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					if !hasInertDirective(f.Doc) && !hasInertDirective(f.Comment) {
						continue
					}
					for _, name := range f.Names {
						out[p.Pkg.Path()+"."+ts.Name.Name+"."+name.Name] = true
					}
				}
				return true
			})
		}
	}
	return out
}

func hasInertDirective(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), inertDirective) {
			return true
		}
	}
	return false
}

// inertFieldKey resolves a selector expression to its field key when it
// reads a struct field, following any embedded path to the owning type.
func inertFieldKey(p *Package, sel *ast.SelectorExpr) string {
	s := p.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return ""
	}
	t := deref(s.Recv())
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = deref(st.Field(i).Type())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name() + "." + sel.Sel.Name
}

// ownerKeyOf returns the pkgpath.Type prefix of a field key.
func ownerKeyOf(fieldKey string) string {
	i := strings.LastIndex(fieldKey, ".")
	if i < 0 {
		return fieldKey
	}
	return fieldKey[:i]
}

func checkInertPackage(p *Package, fields map[string]bool) []Finding {
	var out []Finding
	inObs := isObsPackage(p.Pkg.Path())
	for _, file := range p.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			c := &inertChecker{p: p, decl: decl, fields: fields, inObs: inObs}
			c.collectTaint()
			c.walk()
			out = append(out, c.out...)
		}
	}
	return out
}

type inertChecker struct {
	p      *Package
	decl   *ast.FuncDecl
	fields map[string]bool
	inObs  bool
	// tainted marks locals derived from an inert field (rate :=
	// cfg.ScrubMBps * ...): testing such a local guards the field.
	tainted map[types.Object]bool
	// enabledLocal marks locals assigned from a Tracer.Enabled() call.
	enabledLocal map[types.Object]bool
	out          []Finding
}

func (c *inertChecker) report(n ast.Node, format string, args ...any) {
	c.out = append(c.out, Finding{
		Pos:      c.p.Fset.Position(n.Pos()),
		Analyzer: "inert",
		Message:  fmt.Sprintf(format, args...),
	})
}

// collectTaint records locals whose initializer reads an inert field or
// an Enabled() result, in one pass before the context walk.
func (c *inertChecker) collectTaint() {
	c.tainted = make(map[types.Object]bool)
	c.enabledLocal = make(map[types.Object]bool)
	mark := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := c.p.Info.Defs[id]
		if obj == nil {
			obj = c.p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if c.exprReadsInert(rhs) {
			c.tainted[obj] = true
		}
		if exprCallsEnabled(c.p, rhs) {
			c.enabledLocal[obj] = true
		}
	}
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				mark(lhs, rhs)
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i < len(n.Values) {
					mark(name, n.Values[i])
				}
			}
		}
		return true
	})
}

func (c *inertChecker) exprReadsInert(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && c.fields[inertFieldKey(c.p, sel)] {
			found = true
		}
		return !found
	})
	return found
}

func exprCallsEnabled(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if m, ok := methodCallOn(p, call, "internal/obs", "Tracer"); ok && m == "Enabled" {
				found = true
			}
		}
		return !found
	})
	return found
}

// receiverOwnerKey returns the pkgpath.Type key of the method receiver,
// or "" for plain functions. The declaring type's own methods (Validate,
// plan, ...) may read its inert fields freely.
func (c *inertChecker) receiverOwnerKey() string {
	if c.decl.Recv == nil || len(c.decl.Recv.List) == 0 {
		return ""
	}
	t := exprType(c.p, c.decl.Recv.List[0].Type)
	if t == nil {
		return ""
	}
	n, ok := deref(t).(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

func (c *inertChecker) walk() {
	ownerExempt := c.receiverOwnerKey()
	var stack []ast.Node
	ast.Inspect(c.decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.SelectorExpr:
			key := inertFieldKey(c.p, n)
			if !c.fields[key] || ownerKeyOf(key) == ownerExempt {
				return true
			}
			if c.isWriteTarget(n, stack) {
				return true
			}
			if !c.guardedUse(n, key, stack) {
				c.report(n, "reads optional field %s outside its zero-value guard; gate the consumption so the zero value stays inert", key)
			}
		case *ast.CallExpr:
			if c.inObs {
				return true
			}
			if m, ok := methodCallOn(c.p, n, "internal/obs", "Tracer"); ok && (m == "Emit" || m == "RunStart") {
				if !c.enabledGated(stack) {
					c.report(n, "Tracer.%s outside an Enabled() guard; argument evaluation runs even when tracing is off", m)
				}
			}
		}
		return true
	})
}

// isWriteTarget reports whether sel is being assigned to (configuring
// the field is construction, not consumption).
func (c *inertChecker) isWriteTarget(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	parent := stack[len(stack)-2]
	switch parent := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if lhs == ast.Expr(sel) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return parent.X == ast.Expr(sel)
	}
	return false
}

// guardedUse walks the ancestor chain of an inert field read looking
// for a context that keeps the zero value inert.
func (c *inertChecker) guardedUse(sel *ast.SelectorExpr, key string, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		child := stack[i+1]
		switch parent := stack[i].(type) {
		case *ast.IfStmt:
			if parent.Cond == child {
				return true // the guard itself
			}
			if (parent.Body == child || parent.Else == child) && c.guardMentions(parent.Cond, key) {
				return true
			}
		case *ast.ForStmt:
			if parent.Cond == child {
				return true
			}
		case *ast.SwitchStmt:
			if parent.Tag == child {
				return true
			}
		case *ast.CaseClause:
			for _, e := range parent.List {
				if e == child {
					return true // compared, not consumed
				}
			}
		case *ast.BinaryExpr:
			switch parent.Op {
			case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
				token.LAND, token.LOR:
				return true
			}
		case *ast.UnaryExpr:
			if parent.Op == token.NOT {
				return true
			}
		case *ast.AssignStmt:
			if c.plumbingAssign(parent, child, sel) {
				return true
			}
		case *ast.ValueSpec:
			for _, v := range parent.Values {
				if v == child {
					return true // var x = cfg.F: a plumbing copy
				}
			}
		case *ast.KeyValueExpr:
			if parent.Value == child {
				if k, ok := parent.Key.(*ast.Ident); ok {
					if k.Name == sel.Sel.Name {
						return true // same-name composite-literal plumbing
					}
					// Differently-named plumbing still counts when the
					// destination field is itself inert: the knob's zero
					// value propagates into another knob with the same
					// contract (IntentLog{Journaled: cfg.IntentJournal}).
					if i > 0 {
						if lit, ok := stack[i-1].(*ast.CompositeLit); ok {
							if t := c.p.Info.TypeOf(lit); t != nil {
								if named, ok := deref(t).(*types.Named); ok && named.Obj().Pkg() != nil {
									if c.fields[named.Obj().Pkg().Path()+"."+named.Obj().Name()+"."+k.Name] {
										return true
									}
								}
							}
						}
					}
				}
			}
		case *ast.ReturnStmt:
			return true // returning a copy; the caller owns the guard
		case *ast.RangeStmt:
			if parent.X == child {
				return true // a zero slice/map ranges zero times
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(parent.Fun).(*ast.Ident); ok {
				if _, b := c.p.Info.Uses[id].(*types.Builtin); b && (id.Name == "len" || id.Name == "cap") {
					return true
				}
			}
		}
	}
	return false
}

// plumbingAssign reports whether an assignment with the field read on
// its right-hand side is a sanctioned copy: into a local, into another
// inert field, or into a same-named field (a mirror knob).
func (c *inertChecker) plumbingAssign(as *ast.AssignStmt, child ast.Node, sel *ast.SelectorExpr) bool {
	idx := -1
	for i, r := range as.Rhs {
		if r == child {
			idx = i
		}
	}
	if idx < 0 {
		return false // the read is nested deeper; arithmetic into a local still matches via the taint pass
	}
	lhss := as.Lhs
	if len(as.Rhs) == len(as.Lhs) {
		lhss = as.Lhs[idx : idx+1]
	}
	for _, lhs := range lhss {
		switch lhs := lhs.(type) {
		case *ast.Ident:
			return true // local copy; guards on it count via taint
		case *ast.SelectorExpr:
			if c.fields[inertFieldKey(c.p, lhs)] {
				return true // propagates into another inert knob
			}
			if lhs.Sel.Name == sel.Sel.Name {
				return true // same-named mirror field
			}
		}
	}
	return false
}

// guardMentions reports whether a condition tests the inert field
// itself, a local tainted by it, or a method of the field's owner type.
func (c *inertChecker) guardMentions(cond ast.Expr, key string) bool {
	if cond == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if inertFieldKey(c.p, n) == key {
				found = true
			}
		case *ast.Ident:
			if obj := c.p.Info.Uses[n]; obj != nil && c.tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			// A predicate method of the owner type (cfg.HasChaos()).
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if t := exprType(c.p, sel.X); t != nil {
					if named, ok := deref(t).(*types.Named); ok && named.Obj().Pkg() != nil {
						if named.Obj().Pkg().Path()+"."+named.Obj().Name() == ownerKeyOf(key) {
							found = true
						}
					}
				}
			}
		}
		return !found
	})
	return found
}

// enabledGated reports whether the node at the top of the stack sits
// inside an if whose condition calls Tracer.Enabled (directly or via a
// local bool assigned from it).
func (c *inertChecker) enabledGated(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		parent, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		child := stack[i+1]
		if parent.Body != child && parent.Else != child {
			continue
		}
		if exprCallsEnabled(c.p, parent.Cond) {
			return true
		}
		gated := false
		ast.Inspect(parent.Cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := c.p.Info.Uses[id]; obj != nil && c.enabledLocal[obj] {
					gated = true
				}
			}
			return !gated
		})
		if gated {
			return true
		}
	}
	return false
}
