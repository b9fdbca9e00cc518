// Package server is the ackdurable fixture for rule A4: a function that
// hands a message to the ctrl sender must first commit the metadata
// journal and consume the commit's error.
package server

import (
	"repro/internal/analysis/ackdurable/testdata/src/meta"
	"repro/internal/analysis/ackdurable/testdata/src/msg"
)

type Server struct {
	ctrl  func(to msg.NodeID, m any)
	san   func(to msg.NodeID, m any)
	store *meta.Store
}

func (s *Server) send(to msg.NodeID, m any) {
	if err := s.store.Commit(); err != nil {
		panic(err)
	}
	s.ctrl(to, m)
}

func (s *Server) sendOrReport(to msg.NodeID, m any) error {
	err := s.store.Commit()
	if err == nil {
		s.ctrl(to, m)
	}
	return err
}

func (s *Server) sendUncommitted(to msg.NodeID, m any) {
	s.ctrl(to, m) // want `without a metadata journal commit`
}

func (s *Server) sendDiscarded(to msg.NodeID, m any) {
	_ = s.store.Commit()
	s.ctrl(to, m) // want `discards its error`
}

func (s *Server) sendDropped(to msg.NodeID, m any) {
	s.store.Commit()
	s.ctrl(to, m) // want `discards its error`
}

func (s *Server) sendThenCommit(to msg.NodeID, m any) error {
	s.ctrl(to, m) // want `before the metadata journal commit`
	return s.store.Commit()
}

// reply goes through send, which commits; only the function that
// touches the ctrl field itself is held to the rule.
func (s *Server) reply(to msg.NodeID, m any) {
	s.send(to, m)
}

// sanSend uses the other network: fences and function-shipped I/O
// acknowledge no metadata mutation.
func (s *Server) sanSend(to msg.NodeID, m any) {
	s.san(to, m)
}
