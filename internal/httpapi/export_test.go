package httpapi

// AddOutcome stores rec in the outcome feed as a finished recovery would.
func (s *Server) AddOutcome(rec OutcomeRecord) { s.outcomes.add(rec) }
