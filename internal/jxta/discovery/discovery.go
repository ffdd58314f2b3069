// Package discovery implements the JXTA Peer Discovery Protocol (PDP).
//
// Discovery lets peers find the peer-group advertisements others
// published, by name, and JoinGroup joins a group from one: the group's
// wire service (package wire) and a lease for it. Each peer
// keeps a local cache with per-record ages; queries search the local
// cache, remote queries propagate through the rendezvous mesh and
// matching peers respond with their records (carrying a remaining
// expiration so stale information ages out of the network). Without this
// protocol a peer remains alone unless it knows its contacts in advance.
//
// The TPS engine uses none of it: it computes a type's group from the
// type's name. Discovery is the substrate of the paper's baseline that
// finds its groups by hand (SR-JXTA, §4.4). A peer builds no discovery;
// an application starts its own on the net group, New(p.Endpoint(),
// p.Rendezvous(), jid.NetGroup.String()), and closes it.
//
// The protocol speaks straight over the peer's rendezvous and endpoint.
// Queries and unsolicited responses (RemotePublish) are propagated to
// the group, and the service reads them as the group's one reader on
// the rendezvous. A query carries its issuer's address, because a
// propagated query reaches a responder through a rendezvous: the answer
// is one direct send to that address, or to the hop the query came from
// when it names none, which arrives under the service's endpoint
// handler (ServiceName, group). A peer never answers its own query
// echoed back by the mesh.
package discovery

import (
	"encoding/xml"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tps-p2p/tps/internal/jxta/adv"
	"github.com/tps-p2p/tps/internal/jxta/endpoint"
	"github.com/tps-p2p/tps/internal/jxta/jid"
	"github.com/tps-p2p/tps/internal/jxta/message"
	"github.com/tps-p2p/tps/internal/jxta/rendezvous"
	"github.com/tps-p2p/tps/internal/jxta/wire"
)

// ServiceName is the endpoint service name of the discovery protocol.
const ServiceName = "jxta.discovery"

// Message element names, namespace "pdp".
const (
	elemNS      = "pdp"
	elemKind    = "Kind"
	elemPayload = "Payload"
	elemSrcAddr = "SrcAddr"
)

const (
	kindQuery    = "query"
	kindResponse = "response"
)

// DefaultThreshold is the maximum number of advertisements a peer
// returns per query (the paper's NUMBER_OF_ADV_PER_PEER).
const DefaultThreshold = 20

// MaxCache bounds the cache; oldest records are evicted first.
const MaxCache = 4096

// ErrClosed is returned after Close.
var ErrClosed = errors.New("discovery: closed")

// Listener observes advertisements as they enter the local cache from
// remote peers, mirroring JXTA's DiscoveryListener. from is the
// responding peer.
type Listener func(a *adv.PeerGroupAdv, from jid.ID)

// Endpoint is the endpoint capability discovery needs; *endpoint.Service
// implements it.
type Endpoint interface {
	endpoint.Sender
	RegisterHandler(svc, param string, h endpoint.Handler) error
	UnregisterHandler(svc, param string)
}

// Service is one peer's discovery service for one group.
type Service struct {
	ep    Endpoint
	rdv   *rendezvous.Service
	group string
	now   func() time.Time

	mu        sync.Mutex
	cache     map[jid.ID]adv.Record        // by group ID
	decoded   map[string]*adv.PeerGroupAdv // see cachedLocked
	listeners map[int]Listener
	nextLis   int
	joined    map[jid.ID]*wire.Service // the groups JoinGroup joined, by group ID
	stats     Stats
	closed    bool
}

// Stats counts discovery activity.
type Stats struct {
	QueriesSent     int64
	QueriesServed   int64
	ResponsesSent   int64
	RecordsReceived int64
	RecordsInCache  int
}

// Option customises the service.
type Option func(*Service)

// WithClock substitutes the time source (tests).
func WithClock(now func() time.Time) Option {
	return func(s *Service) { s.now = now }
}

// New creates the discovery service of the group, registers its
// endpoint handler and makes it the group's reader. rdv is the peer's
// rendezvous service, through which queries and unsolicited responses
// are propagated in the group.
func New(ep Endpoint, rdv *rendezvous.Service, group string, opts ...Option) (*Service, error) {
	s := &Service{
		ep:        ep,
		rdv:       rdv,
		group:     group,
		now:       time.Now,
		cache:     make(map[jid.ID]adv.Record),
		decoded:   make(map[string]*adv.PeerGroupAdv),
		listeners: make(map[int]Listener),
		joined:    make(map[jid.ID]*wire.Service),
	}
	for _, opt := range opts {
		opt(s)
	}
	direct := func(v message.View, from endpoint.Address) { s.handle(v.Message(), from) }
	if err := ep.RegisterHandler(ServiceName, group, direct); err != nil {
		return nil, fmt.Errorf("discovery: register endpoint handler: %w", err)
	}
	if err := rdv.Read(group, rendezvous.DeliverFunc(s.handle)); err != nil {
		ep.UnregisterHandler(ServiceName, group)
		return nil, fmt.Errorf("discovery: read group: %w", err)
	}
	return s, nil
}

// Close unregisters the endpoint handler, stops reading the group,
// closes the wire of every group JoinGroup joined and ends its lease.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	joined := s.joined
	s.joined = nil
	s.mu.Unlock()
	s.ep.UnregisterHandler(ServiceName, s.group)
	_ = s.rdv.Read(s.group, nil)
	for id, w := range joined {
		w.Close()
		s.rdv.Leave(id.String())
	}
}

// AddListener registers a listener and returns a token for removal.
func (s *Service) AddListener(l Listener) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextLis
	s.nextLis++
	s.listeners[id] = l
	return id
}

// RemoveListener drops the listener with the given token.
func (s *Service) RemoveListener(token int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.listeners, token)
}

// Publish stores the advertisement in the local cache, where local and
// remote queries can find it. Zero durations select the defaults.
func (s *Service) Publish(a *adv.PeerGroupAdv, lifetime, expiration time.Duration) error {
	if lifetime == 0 {
		lifetime = adv.DefaultLifetime
	}
	if expiration == 0 {
		expiration = adv.DefaultExpiration
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.insertLocked(adv.Record{
		Adv:        a,
		Published:  s.now(),
		Lifetime:   lifetime,
		Expiration: expiration,
	})
	return nil
}

// RemotePublish pushes the advertisement to the group through the
// rendezvous mesh, unsolicited, so interested peers learn it without
// querying (JXTA's discovery.remotePublish). The local cache is updated
// too.
func (s *Service) RemotePublish(a *adv.PeerGroupAdv, expiration time.Duration) error {
	if err := s.Publish(a, 0, expiration); err != nil {
		return err
	}
	if expiration == 0 {
		expiration = adv.DefaultExpiration
	}
	payload, err := encodeResponse([]adv.Record{{
		Adv:        a,
		Published:  s.now(),
		Lifetime:   expiration,
		Expiration: expiration,
	}}, s.now())
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.ResponsesSent++
	s.mu.Unlock()
	if err := s.rdv.Propagate(s.newMessage(kindResponse, payload), ServiceName, s.group); err != nil {
		return fmt.Errorf("discovery: remote publish: %w", err)
	}
	return nil
}

// GetLocalAdvertisements searches the local cache for advertisements
// named name; a trailing '*' makes it a prefix.
func (s *Service) GetLocalAdvertisements(name string) []adv.Record {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(now)
	var out []adv.Record
	for _, rec := range s.cache {
		if adv.Match(rec.Adv.Name, name) {
			out = append(out, rec)
		}
	}
	return out
}

// GetRemoteAdvertisements propagates a query for advertisements named
// name (a trailing '*' makes it a prefix) through the rendezvous mesh.
// Responses arrive asynchronously: they are inserted into the local
// cache and reported to listeners. threshold limits how many records
// each responding peer returns (0 means DefaultThreshold).
func (s *Service) GetRemoteAdvertisements(name string, threshold int) error {
	msg, err := s.query(name, threshold)
	if err != nil {
		return err
	}
	if err := s.rdv.Propagate(msg, ServiceName, s.group); err != nil {
		return fmt.Errorf("discovery: remote query: %w", err)
	}
	return nil
}

// query builds a query message and counts it sent.
func (s *Service) query(name string, threshold int) (*message.Message, error) {
	payload, err := encodeQuery(name, threshold)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	if !closed {
		s.stats.QueriesSent++
	}
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return s.newMessage(kindQuery, payload), nil
}

// newMessage builds a discovery message. A query carries its issuer's
// address, where the answer goes.
func (s *Service) newMessage(kind string, payload []byte) *message.Message {
	msg := message.New(s.ep.PeerID())
	msg.AddString(elemNS, elemKind, kind)
	msg.AddBytes(elemNS, elemPayload, payload)
	if kind != kindQuery {
		return msg
	}
	if addrs := s.ep.LocalAddresses(); len(addrs) > 0 {
		msg.AddString(elemNS, elemSrcAddr, string(addrs[0]))
	}
	return msg
}

// Flush drops every cached advertisement (JXTA's
// flushAdvertisements(null, GROUP)).
func (s *Service) Flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.cache)
}

// Stats returns a snapshot of the counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(s.now())
	st := s.stats
	st.RecordsInCache = len(s.cache)
	return st
}

// insertLocked adds a record, keeping the freshest per group ID and
// bounding the cache size.
func (s *Service) insertLocked(rec adv.Record) {
	id := rec.Adv.GroupID
	if old, ok := s.cache[id]; ok && old.Fresher(rec) {
		return
	}
	if len(s.cache) >= MaxCache {
		s.evictOldestLocked()
	}
	s.cache[id] = rec
}

func (s *Service) evictOldestLocked() {
	var oldest jid.ID
	var oldestAt time.Time
	first := true
	for id, rec := range s.cache {
		if first || rec.Published.Before(oldestAt) {
			oldest, oldestAt, first = id, rec.Published, false
		}
	}
	if !first {
		delete(s.cache, oldest)
	}
}

func (s *Service) expireLocked(now time.Time) {
	for id, rec := range s.cache {
		if rec.Expired(now) {
			delete(s.cache, id)
		}
	}
	for doc := range s.decoded {
		if s.cachedLocked(doc) == nil {
			delete(s.decoded, doc)
		}
	}
}

// cachedLocked returns the advertisement doc was decoded into when that
// very value is still what the cache holds for its ID, nil otherwise.
// The finder's steady-state rounds are answered with the documents it
// already holds, and decoding one costs more than everything else done
// with it. decoded is that index: document → the advertisement decoded
// from it, for remotely learned records only. An entry whose record was
// since replaced, evicted, flushed or expired no longer matches the
// cache, reads as a miss here and is swept by expireLocked.
func (s *Service) cachedLocked(doc string) *adv.PeerGroupAdv {
	a, ok := s.decoded[doc]
	if !ok || s.cache[a.GroupID].Adv != a {
		return nil
	}
	return a
}

// handle is the endpoint handler and the group's reader: a query from
// another peer is answered from the local cache, a response feeds the
// cache and the listeners. Anything else is dropped.
func (s *Service) handle(msg *message.Message, from endpoint.Address) {
	payload := msg.Bytes(elemNS, elemPayload)
	switch msg.Text(elemNS, elemKind) {
	case kindQuery:
		// A propagated query can echo back to its issuer; never
		// self-answer.
		if msg.Src == s.ep.PeerID() {
			return
		}
		resp := s.answer(payload)
		if resp == nil {
			return
		}
		// from is the rendezvous a propagated query came through, not
		// the querier.
		to := endpoint.Address(msg.Text(elemNS, elemSrcAddr))
		if to == "" {
			to = from
		}
		_ = s.ep.Send(to, ServiceName, s.group, s.newMessage(kindResponse, resp))
	case kindResponse:
		s.ingest(payload, msg.Src)
	}
}

// answer serves a remote discovery query from the local cache: the
// response payload, or nil when the query is malformed or nothing
// matches (discovery answers only positively).
func (s *Service) answer(payload []byte) []byte {
	query, err := decodeQuery(payload)
	if err != nil {
		return nil
	}
	threshold := query.Threshold
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	now := s.now()
	s.mu.Lock()
	s.stats.QueriesServed++
	s.expireLocked(now)
	var match []adv.Record
	for _, rec := range s.cache {
		if adv.Match(rec.Adv.Name, query.Name) {
			match = append(match, rec)
			if len(match) >= threshold {
				break
			}
		}
	}
	if len(match) > 0 {
		s.stats.ResponsesSent++
	}
	s.mu.Unlock()
	if len(match) == 0 {
		return nil
	}
	resp, _ := encodeResponse(match, now) // nil on error: no answer
	return resp
}

// ingest takes in the advertisements a remote peer sent us. An item
// whose document is the one a cached record was decoded from is not
// decoded again: the record takes the new expiration and listeners hear
// of the advertisement they already know.
func (s *Service) ingest(payload []byte, src jid.ID) {
	items, err := decodeResponse(payload)
	if err != nil {
		return
	}
	// advs[i] stays nil for an item to skip: already stale, or not a
	// peer-group advertisement.
	advs := make([]*adv.PeerGroupAdv, len(items))
	s.mu.Lock()
	for i, it := range items {
		if it.ExpirationMS > 0 {
			advs[i] = s.cachedLocked(it.Doc)
		}
	}
	s.mu.Unlock()
	for i, it := range items {
		if advs[i] == nil && it.ExpirationMS > 0 {
			advs[i], _ = adv.Unmarshal([]byte(it.Doc))
		}
	}
	now := s.now()
	var fire []*adv.PeerGroupAdv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.expireLocked(now) // also what keeps decoded no larger than the cache
	for i, it := range items {
		if advs[i] == nil {
			continue
		}
		expiration := time.Duration(it.ExpirationMS) * time.Millisecond
		s.stats.RecordsReceived++
		s.insertLocked(adv.Record{
			Adv:       advs[i],
			Published: now,
			// A record learned remotely lives only as long as the
			// remaining expiration its publisher granted.
			Lifetime:   expiration,
			Expiration: expiration,
		})
		s.decoded[it.Doc] = advs[i]
		fire = append(fire, advs[i])
	}
	listeners := make([]Listener, 0, len(s.listeners))
	for _, l := range s.listeners {
		listeners = append(listeners, l)
	}
	s.mu.Unlock()
	for _, a := range fire {
		for _, l := range listeners {
			l(a, src)
		}
	}
}

// --- wire encoding ---

type queryDoc struct {
	XMLName   xml.Name `xml:"DiscoveryQuery"`
	Name      string   `xml:"Name"`
	Threshold int      `xml:"Threshold"`
}

type responseDoc struct {
	XMLName xml.Name      `xml:"DiscoveryResponse"`
	Items   []responseRec `xml:"Item"`
}

type responseRec struct {
	ExpirationMS int64  `xml:"expiration,attr"`
	Doc          string `xml:",chardata"` // the advertisement XML, escaped
}

func encodeQuery(name string, threshold int) ([]byte, error) {
	out, err := xml.Marshal(queryDoc{Name: name, Threshold: threshold})
	if err != nil {
		return nil, fmt.Errorf("discovery: encode query: %w", err)
	}
	return out, nil
}

func decodeQuery(payload []byte) (queryDoc, error) {
	var q queryDoc
	if err := xml.Unmarshal(payload, &q); err != nil {
		return q, fmt.Errorf("discovery: decode query: %w", err)
	}
	return q, nil
}

func encodeResponse(recs []adv.Record, now time.Time) ([]byte, error) {
	doc := responseDoc{Items: make([]responseRec, 0, len(recs))}
	for _, rec := range recs {
		raw, err := adv.Marshal(rec.Adv)
		if err != nil {
			return nil, err
		}
		doc.Items = append(doc.Items, responseRec{
			ExpirationMS: rec.RemainingExpiration(now).Milliseconds(),
			Doc:          string(raw),
		})
	}
	out, err := xml.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("discovery: encode response: %w", err)
	}
	return out, nil
}

// decodeResponse parses the response envelope; the advertisement
// documents inside it are left for the caller to decode.
func decodeResponse(payload []byte) ([]responseRec, error) {
	var doc responseDoc
	if err := xml.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("discovery: decode response: %w", err)
	}
	return doc.Items, nil
}
