package server

import "repro/internal/msg"

// RepliesKept reports how many completed replies the server's reply cache
// holds for client.
func (s *Server) RepliesKept(client msg.NodeID) int { return s.rcache.Kept(client) }
