// Package session implements collaboration sessions: group formation
// around an objective and result space, membership tracking, total
// event ordering, concurrency control for shared objects, and session
// archival so late joiners can catch up with history.
package session

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"adaptiveqos/internal/profile"
	"adaptiveqos/internal/selector"
)

// Session errors.
var (
	ErrNotMember   = errors.New("session: client is not a member")
	ErrMember      = errors.New("session: client is already a member")
	ErrNotAdmitted = errors.New("session: profile does not satisfy the group filter")
)

// Group defines what a collaboration session is about.  A more precise
// objective definition yields higher satisfaction; the result space
// lists the outcomes the session supports (sharing comments, documents,
// images, ...).  The filter forms smaller groups among members with
// closer interests.
type Group struct {
	// Objective names the shared goal ("crisis-response-sector-7",
	// "auction:modems").
	Objective string
	// ResultSpace lists the capabilities the session offers.
	ResultSpace []string
	// Filter admits only clients whose profile satisfies it; nil
	// admits everyone.
	Filter *selector.Selector
}

// Admits reports whether a client profile may join the group.
func (g *Group) Admits(p *profile.Profile) bool {
	return g.Filter == nil || p.Matches(g.Filter)
}

// Offers reports whether the group's result space includes a
// capability.
func (g *Group) Offers(result string) bool {
	for _, r := range g.ResultSpace {
		if r == result {
			return true
		}
	}
	return false
}

// Event is one archived session event.
type Event struct {
	// Seq is the global sequence number assigned by the session.
	Seq uint64
	// SenderSeq is the number the sender stamped on the event in its
	// own sequence space (0 = unnumbered); SenderHistory looks events
	// up by it.
	SenderSeq uint32
	// Sender is the originating client.
	Sender string
	// App names the application ("chat", "whiteboard", "imageviewer").
	App string
	// Object is the shared object concerned, if any.
	Object string
	// Payload is the application-encoded event body.
	Payload []byte
}

// Session is one collaboration session: membership plus a totally
// ordered, archived event history.  The session plays the role of the
// central coordinator where one exists (the base station for wireless
// legs); wired peers each hold a replica that converges because events
// carry the coordinator-assigned sequence.
type Session struct {
	Group Group

	mu      sync.RWMutex
	members map[string]*profile.Profile
	nextSeq uint64
	// archive holds the retained events; their Seqs are contiguous, so
	// the event with Seq q sits at archive[q-archive[0].Seq].
	archive []Event
	// bySender indexes each sender's archived events: session seqs
	// ordered by SenderSeq, so a per-sender lookup is a binary
	// search however much other senders have archived.
	bySender map[string][]uint64
	// archiveCap bounds history; 0 = unlimited.
	archiveCap int
}

// New creates an empty session for the group.
func New(g Group) *Session {
	return &Session{Group: g, members: make(map[string]*profile.Profile), bySender: make(map[string][]uint64)}
}

// SetArchiveCap bounds the archived history to the most recent n
// events (0 = unlimited).
func (s *Session) SetArchiveCap(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.archiveCap = n
	s.trimLocked()
}

// Join admits a client; its profile must satisfy the group filter.
func (s *Session) Join(p *profile.Profile) error {
	if !s.Group.Admits(p) {
		return fmt.Errorf("%w: %s", ErrNotAdmitted, p.ID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.members[p.ID]; ok {
		return fmt.Errorf("%w: %s", ErrMember, p.ID)
	}
	s.members[p.ID] = p.Clone()
	return nil
}

// Leave removes a client.
func (s *Session) Leave(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.members[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotMember, id)
	}
	delete(s.members, id)
	return nil
}

// IsMember reports membership.
func (s *Session) IsMember(id string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.members[id]
	return ok
}

// Members returns the current member count.
func (s *Session) Members() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.members)
}

// UpdateProfile refreshes a member's stored profile snapshot.
func (s *Session) UpdateProfile(p *profile.Profile) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.members[p.ID]; !ok {
		return fmt.Errorf("%w: %s", ErrNotMember, p.ID)
	}
	s.members[p.ID] = p.Clone()
	return nil
}

// MatchMembers returns the IDs of members whose profile satisfies sel,
// sorted is not guaranteed.
func (s *Session) MatchMembers(sel *selector.Selector) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for id, p := range s.members {
		if p.Matches(sel) {
			out = append(out, id)
		}
	}
	return out
}

// Commit assigns the next global sequence number to an event from a
// member, archives it and returns the sequenced event.
func (s *Session) Commit(sender, app, object string, payload []byte) (Event, error) {
	return s.CommitEvent(Event{Sender: sender, App: app, Object: object, Payload: payload})
}

// CommitEvent is Commit for a prepared event: it keeps ev's SenderSeq
// and overwrites its Seq.  The payload is copied.
func (s *Session) CommitEvent(ev Event) (Event, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.members[ev.Sender]; !ok {
		return Event{}, fmt.Errorf("%w: %s", ErrNotMember, ev.Sender)
	}
	s.nextSeq++
	ev.Seq = s.nextSeq
	ev.Payload = append([]byte(nil), ev.Payload...)
	s.archive = append(s.archive, ev)
	idx := s.bySender[ev.Sender]
	s.bySender[ev.Sender] = slices.Insert(idx, s.senderSearchLocked(idx, uint64(ev.SenderSeq)+1), ev.Seq)
	s.trimLocked()
	return ev, nil
}

// trimLocked drops the archive prefix beyond archiveCap, unindexing
// the dropped events and clearing their slots so their payloads can be
// collected before the backing array is next reallocated.
func (s *Session) trimLocked() {
	drop := len(s.archive) - s.archiveCap
	if s.archiveCap <= 0 || drop <= 0 {
		return
	}
	for _, ev := range s.archive[:drop] {
		idx := s.bySender[ev.Sender]
		i := s.senderSearchLocked(idx, uint64(ev.SenderSeq))
		for idx[i] != ev.Seq {
			i++
		}
		if i == 0 {
			s.bySender[ev.Sender] = idx[1:] // the usual case: no copy
		} else {
			s.bySender[ev.Sender] = slices.Delete(idx, i, i+1)
		}
	}
	clear(s.archive[:drop])
	s.archive = s.archive[drop:]
}

// eventLocked returns the retained event with session seq q.
func (s *Session) eventLocked(q uint64) Event {
	return s.archive[q-s.archive[0].Seq]
}

// senderSearchLocked returns the first position in a bySender list
// whose event's SenderSeq is at least from.
func (s *Session) senderSearchLocked(idx []uint64, from uint64) int {
	return sort.Search(len(idx), func(i int) bool { return uint64(s.eventLocked(idx[i]).SenderSeq) >= from })
}

// History returns archived events with Seq > afterSeq, in order — the
// catch-up stream for a late joiner.
func (s *Session) History(afterSeq uint64) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := 0
	if n := len(s.archive); n > 0 && afterSeq >= s.archive[0].Seq {
		i = int(min(afterSeq-s.archive[0].Seq+1, uint64(n)))
	}
	return append([]Event(nil), s.archive[i:]...)
}

// SenderHistory returns sender's archived events with SenderSeq >
// afterSenderSeq, in ascending SenderSeq order — the replay a NACK in
// that sender's sequence space asks for.
func (s *Session) SenderHistory(sender string, afterSenderSeq uint32) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	idx := s.bySender[sender]
	idx = idx[s.senderSearchLocked(idx, uint64(afterSenderSeq)+1):]
	out := make([]Event, len(idx))
	for i, q := range idx {
		out[i] = s.eventLocked(q)
	}
	return out
}

// Archived returns the number of retained events.
func (s *Session) Archived() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.archive)
}

// LastSeq returns the highest assigned sequence number.
func (s *Session) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.nextSeq
}
