// Package typereg maintains the event-type registry of the TPS layer.
//
// Type-based publish/subscribe uses the event type as the subject: one
// type maps to one peer group (and one propagated pipe), named by its
// path. Types form a nominal hierarchy — the paper's Figure 7 — so that
// subscribing to a type also delivers instances of its subtypes. Go has
// no struct subtyping, so the hierarchy is declared explicitly at
// registration time; delivery additionally respects Go assignability (an
// interface subscription receives every implementing event type).
//
// Subjects are hierarchical paths ("A/C/D"). A subscription covers the
// Closure of its root; a type registered later is announced to the
// registry's listeners, which is how a subscriber joins the group of a
// subtype registered after it subscribed.
package typereg

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Errors.
var (
	ErrNotRegistered = errors.New("typereg: type not registered")
	ErrDupType       = errors.New("typereg: type already registered")
	ErrBadParent     = errors.New("typereg: parent not registered")
	ErrNotNameable   = errors.New("typereg: type has no name")
)

// Node is one registered event type.
type Node struct {
	typ    reflect.Type
	name   string
	path   string
	parent *Node

	mu       sync.Mutex
	children []*Node
}

// Type returns the registered Go type. For interface registrations it is
// the interface type itself.
func (n *Node) Type() reflect.Type { return n.typ }

// Name returns the type's short name (e.g. "SkiRental").
func (n *Node) Name() string { return n.name }

// Path returns the hierarchical subject (e.g. "Rental/SkiRental").
func (n *Node) Path() string { return n.path }

// Parent returns the supertype node, or nil for roots.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the direct subtypes.
func (n *Node) Children() []*Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*Node(nil), n.children...)
}

// IsInterface reports whether the node registers an interface type.
func (n *Node) IsInterface() bool { return n.typ.Kind() == reflect.Interface }

// Listener is told of every node registered after it was added.
type Listener func(*Node)

// Registry maps Go types to subject nodes.
type Registry struct {
	mu        sync.RWMutex
	byType    map[reflect.Type]*Node
	byPath    map[string]*Node
	listeners map[int]Listener
	nextLis   int
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		byType:    make(map[reflect.Type]*Node),
		byPath:    make(map[string]*Node),
		listeners: make(map[int]Listener),
	}
}

// AddListener registers l and returns a token for RemoveListener. l is
// called on the registering goroutine once the node is in the registry,
// its parent's children and every Closure included.
func (r *Registry) AddListener(l Listener) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	tok := r.nextLis
	r.nextLis++
	r.listeners[tok] = l
	return tok
}

// RemoveListener drops the listener with the given token.
func (r *Registry) RemoveListener(tok int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.listeners, tok)
}

// TypeOf returns the registration type for a sample value: the dynamic
// type of v, with pointer indirection stripped.
func TypeOf(v any) reflect.Type {
	t := reflect.TypeOf(v)
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t
}

// Register adds typ to the hierarchy under parent (nil for a root) and
// returns its node.
func (r *Registry) Register(typ reflect.Type, parent *Node) (*Node, error) {
	if typ == nil {
		return nil, ErrNotNameable
	}
	for typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	name := typ.Name()
	if name == "" {
		return nil, fmt.Errorf("%w: %v", ErrNotNameable, typ)
	}
	path := name
	if parent != nil {
		path = parent.path + "/" + name
	}
	node := &Node{typ: typ, name: name, path: path, parent: parent}

	r.mu.Lock()
	if _, ok := r.byType[typ]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrDupType, typ)
	}
	if _, ok := r.byPath[path]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: path %q", ErrDupType, path)
	}
	if parent != nil {
		if _, ok := r.byType[parent.typ]; !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %v", ErrBadParent, parent.typ)
		}
	}
	r.byType[typ] = node
	r.byPath[path] = node
	listeners := make([]Listener, 0, len(r.listeners))
	for _, l := range r.listeners {
		listeners = append(listeners, l)
	}
	r.mu.Unlock()

	if parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, node)
		parent.mu.Unlock()
	}
	for _, l := range listeners {
		l(node)
	}
	return node, nil
}

// NodeByType returns the node for a Go type.
func (r *Registry) NodeByType(typ reflect.Type) (*Node, bool) {
	for typ != nil && typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.byType[typ]
	return n, ok
}

// NodeByPath returns the node for a subject path.
func (r *Registry) NodeByPath(path string) (*Node, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n, ok := r.byPath[path]
	return n, ok
}

// NodeOf returns the node for a sample value's dynamic type.
func (r *Registry) NodeOf(v any) (*Node, bool) {
	return r.NodeByType(TypeOf(v))
}

// Paths lists every registered subject path, sorted — the type catalog
// the introspection API reports.
func (r *Registry) Paths() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.byPath))
	for p := range r.byPath {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Subtree returns the node and all its descendants, sorted by path —
// the nominal subtype closure of Figure 7 (subscribing to A covers
// B, C and D).
func (r *Registry) Subtree(root *Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// Closure returns every registered type an event subscription on root
// must cover: the nominal subtree plus — when root is an interface —
// every registered concrete type assignable to it, with their own
// subtrees.
func (r *Registry) Closure(root *Node) []*Node {
	set := make(map[*Node]struct{})
	for _, n := range r.Subtree(root) {
		set[n] = struct{}{}
	}
	if root.IsInterface() {
		r.mu.RLock()
		var impls []*Node
		for typ, n := range r.byType {
			if typ.Kind() == reflect.Interface {
				continue
			}
			if typ.Implements(root.typ) || reflect.PointerTo(typ).Implements(root.typ) {
				impls = append(impls, n)
			}
		}
		r.mu.RUnlock()
		for _, n := range impls {
			for _, sub := range r.Subtree(n) {
				set[sub] = struct{}{}
			}
		}
	}
	out := make([]*Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out
}

// Assignable reports whether an event of dynamic type dyn may be
// delivered to a subscriber whose subscription type is the given node:
// either the types match, dyn is a nominal descendant of the node, or
// the node is an interface dyn implements. This is the delivery
// predicate that makes the paper's fA(fA,fB,fC,fD) semantics type-safe
// in Go.
func (r *Registry) Assignable(node *Node, dyn reflect.Type) bool {
	for dyn != nil && dyn.Kind() == reflect.Pointer {
		dyn = dyn.Elem()
	}
	if node.typ == dyn {
		return true
	}
	if node.IsInterface() {
		return dyn.Implements(node.typ) || reflect.PointerTo(dyn).Implements(node.typ)
	}
	// Nominal descent.
	d, ok := r.NodeByType(dyn)
	if !ok {
		return false
	}
	for p := d.parent; p != nil; p = p.parent {
		if p == node {
			return true
		}
	}
	return false
}

// CoversPath reports whether path lies in the subject subtree rooted at
// rootPath ("A/C" covers "A/C" and "A/C/D" but not "A/CD").
func CoversPath(rootPath, path string) bool {
	return path == rootPath || strings.HasPrefix(path, rootPath+"/")
}

// PathsOf extracts the subject paths of a node list.
func PathsOf(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.path
	}
	return out
}
