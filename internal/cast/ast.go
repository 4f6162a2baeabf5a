// Package cast defines the abstract syntax tree for the C subset handled by
// the Graph2Par pipeline. Node kinds double as the heterogeneous node types
// of the augmented AST graph, so the type taxonomy here deliberately mirrors
// the Clang-style spelling the paper's figures use (ForStmt, BinaryOperator,
// CallExpr, ...).
//
// AppendChildren is the one list of a node's children and Walk the one
// traversal built on it. The AST questions the later stages ask are
// answered here once: a file's loops with their functions (File.Loops),
// its defined functions (File.DefinedFuncs), a node's enclosing function
// (File.EnclosingFunc), the names declared under a node (DeclaredNames)
// and a struct's definition (File.StructByName).
package cast

import "graph2par/internal/clex"

// Node is implemented by every AST node. AppendChildren lists its
// children.
type Node interface {
	// Kind returns the Clang-style node kind name used as the
	// heterogeneous node type in the aug-AST.
	Kind() string
	// Pos returns the source position of the node's first token.
	Pos() clex.Pos
}

// Expr is implemented by all expression nodes.
type Expr interface {
	Node
	exprNode()
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// ---------------------------------------------------------------------------
// Expressions

// Ident is a reference to a variable or function name.
type Ident struct {
	Name string
	// ID numbers the identifier within its parse, densely from 0, so
	// that a pass can keep per-identifier facts in a slice indexed by it.
	// A file's IDs run below File.Idents.
	ID int
	P  clex.Pos
}

// IntLit is an integer literal.
type IntLit struct {
	Text  string
	Value int64
	P     clex.Pos
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	Text  string
	Value float64
	P     clex.Pos
}

// CharLit is a character literal (raw spelling including quotes).
type CharLit struct {
	Text string
	P    clex.Pos
}

// StringLit is a string literal (raw spelling including quotes).
type StringLit struct {
	Text string
	P    clex.Pos
}

// Unary is a prefix or postfix unary operation: -x, !x, ~x, *p, &x, ++x, x++.
type Unary struct {
	Op      string
	X       Expr
	Postfix bool
	P       clex.Pos
}

// Binary is a binary operation: x+y, x<y, x&&y, ...
type Binary struct {
	Op   string
	X, Y Expr
	P    clex.Pos
}

// Assign is an assignment or compound assignment: x = y, x += y, ...
type Assign struct {
	Op  string // "=", "+=", ...
	LHS Expr
	RHS Expr
	P   clex.Pos
}

// Conditional is the ternary operator cond ? a : b.
type Conditional struct {
	Cond, Then, Else Expr
	P                clex.Pos
}

// Call is a function call f(args...).
type Call struct {
	Fun  Expr
	Args []Expr
	P    clex.Pos
}

// Index is an array subscript a[i].
type Index struct {
	Arr Expr
	Idx Expr
	P   clex.Pos
}

// Member is a struct member access x.f or p->f.
type Member struct {
	X     Expr
	Name  string
	Arrow bool
	P     clex.Pos
}

// CastExpr is a C-style cast (T)x.
type CastExpr struct {
	Type string
	X    Expr
	P    clex.Pos
}

// SizeofExpr is sizeof(expr) or sizeof(type); Type is non-empty for the
// type form and X is nil in that case.
type SizeofExpr struct {
	Type string
	X    Expr
	P    clex.Pos
}

// Comma is the comma operator x, y.
type Comma struct {
	X, Y Expr
	P    clex.Pos
}

// InitList is an aggregate initializer { a, b, ... }.
type InitList struct {
	Elems []Expr
	P     clex.Pos
}

func (*Ident) exprNode()       {}
func (*IntLit) exprNode()      {}
func (*FloatLit) exprNode()    {}
func (*CharLit) exprNode()     {}
func (*StringLit) exprNode()   {}
func (*Unary) exprNode()       {}
func (*Binary) exprNode()      {}
func (*Assign) exprNode()      {}
func (*Conditional) exprNode() {}
func (*Call) exprNode()        {}
func (*Index) exprNode()       {}
func (*Member) exprNode()      {}
func (*CastExpr) exprNode()    {}
func (*SizeofExpr) exprNode()  {}
func (*Comma) exprNode()       {}
func (*InitList) exprNode()    {}

func (n *Ident) Kind() string     { return "DeclRefExpr" }
func (n *IntLit) Kind() string    { return "IntegerLiteral" }
func (n *FloatLit) Kind() string  { return "FloatingLiteral" }
func (n *CharLit) Kind() string   { return "CharacterLiteral" }
func (n *StringLit) Kind() string { return "StringLiteral" }
func (n *Unary) Kind() string     { return "UnaryOperator" }
func (n *Binary) Kind() string    { return "BinaryOperator" }
func (n *Assign) Kind() string {
	if n.Op == "=" {
		return "BinaryOperator"
	}
	return "CompoundAssignOperator"
}
func (n *Conditional) Kind() string { return "ConditionalOperator" }
func (n *Call) Kind() string        { return "CallExpr" }
func (n *Index) Kind() string       { return "ArraySubscriptExpr" }
func (n *Member) Kind() string      { return "MemberExpr" }
func (n *CastExpr) Kind() string    { return "CStyleCastExpr" }
func (n *SizeofExpr) Kind() string  { return "UnaryExprOrTypeTraitExpr" }
func (n *Comma) Kind() string       { return "BinaryOperator" }
func (n *InitList) Kind() string    { return "InitListExpr" }

func (n *Ident) Pos() clex.Pos       { return n.P }
func (n *IntLit) Pos() clex.Pos      { return n.P }
func (n *FloatLit) Pos() clex.Pos    { return n.P }
func (n *CharLit) Pos() clex.Pos     { return n.P }
func (n *StringLit) Pos() clex.Pos   { return n.P }
func (n *Unary) Pos() clex.Pos       { return n.P }
func (n *Binary) Pos() clex.Pos      { return n.P }
func (n *Assign) Pos() clex.Pos      { return n.P }
func (n *Conditional) Pos() clex.Pos { return n.P }
func (n *Call) Pos() clex.Pos        { return n.P }
func (n *Index) Pos() clex.Pos       { return n.P }
func (n *Member) Pos() clex.Pos      { return n.P }
func (n *CastExpr) Pos() clex.Pos    { return n.P }
func (n *SizeofExpr) Pos() clex.Pos  { return n.P }
func (n *Comma) Pos() clex.Pos       { return n.P }
func (n *InitList) Pos() clex.Pos    { return n.P }

// ---------------------------------------------------------------------------
// Statements

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	X Expr
	P clex.Pos
}

// DeclStmt is a (possibly multi-declarator) variable declaration statement.
type DeclStmt struct {
	Decls []*VarDecl
	P     clex.Pos
}

// Compound is a `{ ... }` block.
type Compound struct {
	Items []Stmt
	P     clex.Pos
}

// If is an if/else statement.
type If struct {
	Cond Expr
	Then Stmt
	Else Stmt // nil when absent
	P    clex.Pos
}

// For is a C for-loop. Init is either a DeclStmt, an ExprStmt, or nil.
// Pragma holds the raw text of an OpenMP pragma immediately preceding the
// loop, if any (used for labeling; empty otherwise).
type For struct {
	Init   Stmt
	Cond   Expr // nil when absent
	Post   Expr // nil when absent
	Body   Stmt
	Pragma string
	P      clex.Pos
}

// While is a while-loop.
type While struct {
	Cond   Expr
	Body   Stmt
	Pragma string
	P      clex.Pos
}

// DoWhile is a do { } while loop.
type DoWhile struct {
	Body Stmt
	Cond Expr
	P    clex.Pos
}

// Return is a return statement, X may be nil.
type Return struct {
	X Expr
	P clex.Pos
}

// Break is a break statement.
type Break struct{ P clex.Pos }

// Continue is a continue statement.
type Continue struct{ P clex.Pos }

// Switch is a switch statement; the body is usually a Compound whose items
// include Case and Default labels.
type Switch struct {
	Cond Expr
	Body Stmt
	P    clex.Pos
}

// Case is a `case N:` label and the statements that follow it until the
// next label.
type Case struct {
	Val Expr // nil for `default:`
	P   clex.Pos
}

// Label is a goto label declaration `name:`.
type Label struct {
	Name string
	P    clex.Pos
}

// Goto is a goto statement.
type Goto struct {
	Name string
	P    clex.Pos
}

// Empty is a lone semicolon.
type Empty struct{ P clex.Pos }

// PragmaStmt is a `#pragma` line that did not attach to a loop (kept so
// that serialization round-trips).
type PragmaStmt struct {
	Text string
	P    clex.Pos
}

func (*ExprStmt) stmtNode()   {}
func (*DeclStmt) stmtNode()   {}
func (*Compound) stmtNode()   {}
func (*If) stmtNode()         {}
func (*For) stmtNode()        {}
func (*While) stmtNode()      {}
func (*DoWhile) stmtNode()    {}
func (*Return) stmtNode()     {}
func (*Break) stmtNode()      {}
func (*Continue) stmtNode()   {}
func (*Switch) stmtNode()     {}
func (*Case) stmtNode()       {}
func (*Label) stmtNode()      {}
func (*Goto) stmtNode()       {}
func (*Empty) stmtNode()      {}
func (*PragmaStmt) stmtNode() {}

func (n *ExprStmt) Kind() string   { return "ExprStmt" }
func (n *DeclStmt) Kind() string   { return "DeclStmt" }
func (n *Compound) Kind() string   { return "CompoundStmt" }
func (n *If) Kind() string         { return "IfStmt" }
func (n *For) Kind() string        { return "ForStmt" }
func (n *While) Kind() string      { return "WhileStmt" }
func (n *DoWhile) Kind() string    { return "DoStmt" }
func (n *Return) Kind() string     { return "ReturnStmt" }
func (n *Break) Kind() string      { return "BreakStmt" }
func (n *Continue) Kind() string   { return "ContinueStmt" }
func (n *Switch) Kind() string     { return "SwitchStmt" }
func (n *Case) Kind() string       { return "CaseStmt" }
func (n *Label) Kind() string      { return "LabelStmt" }
func (n *Goto) Kind() string       { return "GotoStmt" }
func (n *Empty) Kind() string      { return "NullStmt" }
func (n *PragmaStmt) Kind() string { return "PragmaStmt" }

func (n *ExprStmt) Pos() clex.Pos   { return n.P }
func (n *DeclStmt) Pos() clex.Pos   { return n.P }
func (n *Compound) Pos() clex.Pos   { return n.P }
func (n *If) Pos() clex.Pos         { return n.P }
func (n *For) Pos() clex.Pos        { return n.P }
func (n *While) Pos() clex.Pos      { return n.P }
func (n *DoWhile) Pos() clex.Pos    { return n.P }
func (n *Return) Pos() clex.Pos     { return n.P }
func (n *Break) Pos() clex.Pos      { return n.P }
func (n *Continue) Pos() clex.Pos   { return n.P }
func (n *Switch) Pos() clex.Pos     { return n.P }
func (n *Case) Pos() clex.Pos       { return n.P }
func (n *Label) Pos() clex.Pos      { return n.P }
func (n *Goto) Pos() clex.Pos       { return n.P }
func (n *Empty) Pos() clex.Pos      { return n.P }
func (n *PragmaStmt) Pos() clex.Pos { return n.P }

// ---------------------------------------------------------------------------
// Declarations

// VarDecl is a single variable declarator with its type.
type VarDecl struct {
	Type      string // textual type spec, e.g. "int", "unsigned long", "float *"
	Name      string
	Pointer   int    // number of '*' on the declarator
	ArrayDims []Expr // one entry per [dim]; nil Expr for []
	Init      Expr   // nil when absent
	P         clex.Pos
}

func (n *VarDecl) Kind() string  { return "VarDecl" }
func (n *VarDecl) Pos() clex.Pos { return n.P }

// Param is a function parameter.
type Param struct {
	Type      string
	Name      string
	Pointer   int
	ArrayDims int // number of [] suffixes
	P         clex.Pos
}

func (n *Param) Kind() string  { return "ParmVarDecl" }
func (n *Param) Pos() clex.Pos { return n.P }

// FuncDecl is a function definition (Body != nil) or prototype (Body == nil).
type FuncDecl struct {
	RetType string
	Name    string
	Params  []*Param
	Body    *Compound
	P       clex.Pos
}

func (n *FuncDecl) Kind() string  { return "FunctionDecl" }
func (n *FuncDecl) Pos() clex.Pos { return n.P }

// StructDef is a struct type definition with scalar/array fields.
type StructDef struct {
	Name   string
	Fields []*VarDecl
	P      clex.Pos
}

func (n *StructDef) Kind() string  { return "RecordDecl" }
func (n *StructDef) Pos() clex.Pos { return n.P }

// File is a parsed translation unit.
type File struct {
	Funcs   []*FuncDecl
	Globals []*VarDecl
	Structs []*StructDef
	// Idents counts the identifiers the parse numbered (see Ident.ID).
	Idents int
	P      clex.Pos
}

// StructByName returns the definition of `struct name`, or nil.
func (n *File) StructByName(name string) *StructDef {
	for _, s := range n.Structs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// FuncLoop is one for or while loop of a file and the defined function
// whose body holds it.
type FuncLoop struct {
	Fn   *FuncDecl
	Loop Stmt
}

// Loops returns every for and while loop of the file's defined
// functions, function by function, each body in Walk order. Prototypes
// have no body and hold no loop. The engine, the verifier and the
// rewriter all index a file's loops by this order.
func (n *File) Loops() []FuncLoop {
	var out []FuncLoop
	for _, fn := range n.Funcs {
		if fn.Body == nil {
			continue
		}
		Walk(fn.Body, func(c Node) bool {
			switch c.(type) {
			case *For, *While:
				out = append(out, FuncLoop{Fn: fn, Loop: c.(Stmt)})
			}
			return true
		})
	}
	return out
}

// DefinedFuncs maps the name of each function the file defines to its
// declaration. Prototypes are left out; a later definition of a name
// replaces an earlier one.
func (n *File) DefinedFuncs() map[string]*FuncDecl {
	out := map[string]*FuncDecl{}
	for _, fn := range n.Funcs {
		if fn.Body != nil {
			out[fn.Name] = fn
		}
	}
	return out
}

// EnclosingFunc returns the first defined function whose body holds node
// (compared by identity), or nil.
func (n *File) EnclosingFunc(node Node) *FuncDecl {
	for _, fn := range n.Funcs {
		if fn.Body == nil {
			continue
		}
		found := false
		Walk(fn.Body, func(c Node) bool {
			if c == node {
				found = true
			}
			return !found
		})
		if found {
			return fn
		}
	}
	return nil
}

func (n *File) Kind() string  { return "TranslationUnitDecl" }
func (n *File) Pos() clex.Pos { return n.P }

// CountNodes returns the number of nodes in the subtree rooted at n.
func CountNodes(n Node) int {
	count := 0
	Walk(n, func(Node) bool { count++; return true })
	return count
}

// DeclaredNames returns the name of every variable declared anywhere
// under n.
func DeclaredNames(n Node) map[string]bool {
	out := map[string]bool{}
	Walk(n, func(c Node) bool {
		if d, ok := c.(*VarDecl); ok {
			out[d.Name] = true
		}
		return true
	})
	return out
}
