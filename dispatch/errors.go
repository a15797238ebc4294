package dispatch

import "errors"

// The service's typed error vocabulary. Every Service method returns
// one of these sentinels (possibly wrapped with detail) for conditions
// a caller can act on; match with errors.Is.
var (
	// ErrClosed: the service has been Closed; no further submissions
	// are accepted.
	ErrClosed = errors.New("dispatch: service closed")

	// ErrDuplicateTask: a task with this ID was already submitted.
	ErrDuplicateTask = errors.New("dispatch: duplicate task id")

	// ErrDuplicateDriver: a driver with this ID is already registered
	// and present.
	ErrDuplicateDriver = errors.New("dispatch: duplicate driver id")

	// ErrUnknownTask: no task with this ID was ever submitted.
	ErrUnknownTask = errors.New("dispatch: unknown task id")

	// ErrUnknownDriver: no driver with this ID is registered.
	ErrUnknownDriver = errors.New("dispatch: unknown driver id")

	// ErrInvalidTask: the task fails model validation (deadline
	// ordering, price vs willingness-to-pay, coordinates).
	ErrInvalidTask = errors.New("dispatch: invalid task")

	// ErrInvalidDriver: the driver fails model validation (working
	// window, coordinates, speed), the Market's speed or gas price is
	// unusable, or a join or retirement time is not finite.
	ErrInvalidDriver = errors.New("dispatch: invalid driver")

	// ErrInvalidCancel: the cancellation is not after the task's
	// publish time, or its time is not finite.
	ErrInvalidCancel = errors.New("dispatch: cancellation not after task publish")

	// ErrOutOfOrder: the event's timestamp precedes the service's
	// current time and the service was built WithStrictTimes. Without
	// strict times, late events are clamped to the current time
	// instead.
	ErrOutOfOrder = errors.New("dispatch: event timestamp before current time")

	// ErrInvalidOption: a functional option was given an unusable
	// value (e.g. WithShards(0)).
	ErrInvalidOption = errors.New("dispatch: invalid option")

	// ErrOverloaded: the service is at its WithMaxPending admission
	// bound — the open batch window already holds the maximum number of
	// undecided orders (batched mode), or the maximum number of
	// submissions are in flight (instant mode). The submission was shed
	// without registering the task; the rider may retry. Front ends map
	// this to HTTP 429.
	ErrOverloaded = errors.New("dispatch: overloaded, submission shed")

	// ErrFinished: the market day was finished — the underlying run's
	// accounts were settled by Close (or the durable log being restored
	// recorded a finish) — so mutation and mid-run snapshots are over.
	// Errors returned by mutators on a closed service match both
	// ErrClosed and ErrFinished; the sentinel exists so callers can
	// distinguish "this market's day is settled" from transient
	// conditions without relying on internal state flags.
	ErrFinished = errors.New("dispatch: market finished")
)
