# chaos_recovery must exit 3 ("acked writes never verified") when both
# followers crash after the writes end (20 s) and stay down through the
# read-back (from 30 s): with no quorum left the leader loses its read
# lease, so no acked write can be read back.
#
#   cmake -DCHAOS_RECOVERY=<path> -P chaos_quorum_loss.cmake
set(plan "crash 1 at 25s for 100s\ncrash 2 at 25s for 100s")
execute_process(COMMAND ${CHAOS_RECOVERY} --duration-s=60 "--plan=${plan}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 3)
  message(FATAL_ERROR "chaos_recovery exited ${rc}; want 3 (unverified acked writes)")
endif()
