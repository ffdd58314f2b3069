package typereg

import (
	"reflect"
	"testing"
	"testing/quick"
)

// The Figure 7 hierarchy, in Go form: A is the root event interface;
// B and C are event kinds under A; D specialises C.
type figA interface{ Kind() string }

type figB struct{ N int }

func (figB) Kind() string { return "B" }

type figC struct{ S string }

func (figC) Kind() string { return "C" }

type figD struct {
	figC
	Extra float64
}

func buildFig7(t *testing.T) (*Registry, map[string]*Node) {
	t.Helper()
	r := New()
	nodes := make(map[string]*Node)
	a, err := r.Register(reflect.TypeOf((*figA)(nil)).Elem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes["A"] = a
	b, err := r.Register(reflect.TypeOf(figB{}), a)
	if err != nil {
		t.Fatal(err)
	}
	nodes["B"] = b
	c, err := r.Register(reflect.TypeOf(figC{}), a)
	if err != nil {
		t.Fatal(err)
	}
	nodes["C"] = c
	d, err := r.Register(reflect.TypeOf(figD{}), c)
	if err != nil {
		t.Fatal(err)
	}
	nodes["D"] = d
	return r, nodes
}

func TestRegisterPathsAndLookup(t *testing.T) {
	r, nodes := buildFig7(t)
	if nodes["A"].Path() != "figA" {
		t.Fatalf("A path %q", nodes["A"].Path())
	}
	if nodes["D"].Path() != "figA/figC/figD" {
		t.Fatalf("D path %q", nodes["D"].Path())
	}
	if got, ok := r.NodeByPath("figA/figC"); !ok || got != nodes["C"] {
		t.Fatal("NodeByPath failed")
	}
	if got, ok := r.NodeByType(reflect.TypeOf(figB{})); !ok || got != nodes["B"] {
		t.Fatal("NodeByType failed")
	}
	if got, ok := r.NodeOf(&figB{}); !ok || got != nodes["B"] {
		t.Fatal("NodeOf with pointer failed")
	}
	if !nodes["A"].IsInterface() || nodes["B"].IsInterface() {
		t.Fatal("IsInterface wrong")
	}
	if nodes["D"].Parent() != nodes["C"] {
		t.Fatal("parent wrong")
	}
	kids := nodes["A"].Children()
	if len(kids) != 2 {
		t.Fatalf("A children = %d", len(kids))
	}
}

func TestRegisterErrors(t *testing.T) {
	r, nodes := buildFig7(t)
	if _, err := r.Register(reflect.TypeOf(figB{}), nil); err == nil {
		t.Fatal("duplicate type accepted")
	}
	if _, err := r.Register(nil, nil); err == nil {
		t.Fatal("nil type accepted")
	}
	if _, err := r.Register(reflect.TypeOf(struct{ X int }{}), nil); err == nil {
		t.Fatal("anonymous type accepted")
	}
	orphan := &Node{typ: reflect.TypeOf(0), name: "int", path: "int"}
	if _, err := r.Register(reflect.TypeOf(""), orphan); err == nil {
		t.Fatal("unregistered parent accepted")
	}
	_ = nodes
}

func TestSubtreeClosure(t *testing.T) {
	r, nodes := buildFig7(t)
	got := PathsOf(r.Subtree(nodes["A"]))
	want := []string{"figA", "figA/figB", "figA/figC", "figA/figC/figD"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subtree(A) = %v", got)
	}
	got = PathsOf(r.Subtree(nodes["C"]))
	want = []string{"figA/figC", "figA/figC/figD"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("subtree(C) = %v", got)
	}
	if got := PathsOf(r.Subtree(nodes["B"])); len(got) != 1 {
		t.Fatalf("subtree(B) = %v", got)
	}
}

func TestInterfaceClosureIncludesImplementers(t *testing.T) {
	r := New()
	// Register B and C as roots (no nominal link to A), then A as an
	// interface: closure must still find them via assignability.
	if _, err := r.Register(reflect.TypeOf(figB{}), nil); err != nil {
		t.Fatal(err)
	}
	cNode, err := r.Register(reflect.TypeOf(figC{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(reflect.TypeOf(figD{}), cNode); err != nil {
		t.Fatal(err)
	}
	aNode, err := r.Register(reflect.TypeOf((*figA)(nil)).Elem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := PathsOf(r.Closure(aNode))
	want := []string{"figA", "figB", "figC", "figC/figD"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("closure(A) = %v, want %v", got, want)
	}
}

func TestAssignable(t *testing.T) {
	r, nodes := buildFig7(t)
	cases := []struct {
		node *Node
		dyn  reflect.Type
		want bool
	}{
		{nodes["A"], reflect.TypeOf(figB{}), true},  // interface impl
		{nodes["A"], reflect.TypeOf(figD{}), true},  // embeds figC => implements
		{nodes["C"], reflect.TypeOf(figD{}), true},  // nominal descent
		{nodes["C"], reflect.TypeOf(figC{}), true},  // exact
		{nodes["C"], reflect.TypeOf(figB{}), false}, // sibling
		{nodes["D"], reflect.TypeOf(figC{}), false}, // supertype not deliverable to subtype sub
		{nodes["B"], reflect.TypeOf(figD{}), false},
	}
	for i, c := range cases {
		if got := r.Assignable(c.node, c.dyn); got != c.want {
			t.Errorf("case %d: Assignable(%s, %v) = %v, want %v", i, c.node.Path(), c.dyn, got, c.want)
		}
	}
	// Pointer dynamic types are unwrapped.
	if !r.Assignable(nodes["C"], reflect.TypeOf(&figD{})) {
		t.Fatal("pointer dyn type not unwrapped")
	}
	// Unregistered dynamic types are never assignable to concrete nodes.
	if r.Assignable(nodes["C"], reflect.TypeOf(42)) {
		t.Fatal("unregistered type assignable")
	}
}

func TestCoversPath(t *testing.T) {
	cases := []struct {
		root, path string
		want       bool
	}{
		{"A", "A", true},
		{"A", "A/B", true},
		{"A/C", "A/C/D", true},
		{"A", "AB", false},
		{"A/C", "A/CD", false},
		{"A/C", "A", false},
	}
	for _, c := range cases {
		if got := CoversPath(c.root, c.path); got != c.want {
			t.Errorf("CoversPath(%q, %q) = %v", c.root, c.path, got)
		}
	}
}

// Property: every node in a subtree is covered by the root's path, and
// nothing outside it is.
func TestQuickSubtreeMatchesCoversPath(t *testing.T) {
	r, nodes := buildFig7(t)
	all := r.Subtree(nodes["A"])
	f := func(rootIdx uint8) bool {
		roots := []*Node{nodes["A"], nodes["B"], nodes["C"], nodes["D"]}
		root := roots[int(rootIdx)%len(roots)]
		inSub := make(map[string]bool)
		for _, n := range r.Subtree(root) {
			inSub[n.Path()] = true
		}
		for _, n := range all {
			if CoversPath(root.Path(), n.Path()) != inSub[n.Path()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeOfUnwrapsPointers(t *testing.T) {
	v := &figB{}
	if TypeOf(v) != reflect.TypeOf(figB{}) {
		t.Fatal("single pointer not unwrapped")
	}
	vv := &v
	if TypeOf(vv) != reflect.TypeOf(figB{}) {
		t.Fatal("double pointer not unwrapped")
	}
	if TypeOf(nil) != nil {
		t.Fatal("nil should map to nil type")
	}
}

// TestListenerSeesLaterRegistrationsInTheirClosure: a listener hears of
// each node registered after it was added, once, and at that moment the
// node is already in its root's Closure. A removed listener hears
// nothing more.
func TestListenerSeesLaterRegistrationsInTheirClosure(t *testing.T) {
	r := New()
	a, err := r.Register(reflect.TypeOf((*figA)(nil)).Elem(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var heard []string
	tok := r.AddListener(func(n *Node) {
		inClosure := false
		for _, c := range r.Closure(a) {
			inClosure = inClosure || c == n
		}
		if !inClosure {
			t.Errorf("%s heard before it is in the closure of %s", n.Path(), a.Path())
		}
		heard = append(heard, n.Path())
	})
	c, err := r.Register(reflect.TypeOf(figC{}), a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(reflect.TypeOf(figD{}), c); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(reflect.TypeOf(figD{}), c); err == nil {
		t.Fatal("a duplicate registration succeeded")
	}
	r.RemoveListener(tok)
	if _, err := r.Register(reflect.TypeOf(figB{}), a); err != nil {
		t.Fatal(err)
	}
	if want := []string{"figA/figC", "figA/figC/figD"}; !reflect.DeepEqual(heard, want) {
		t.Fatalf("heard %v, want %v", heard, want)
	}
}
