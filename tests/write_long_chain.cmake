# Writes a .sus file whose service `s` is one `;` chain of TERMS events,
# so no megabyte input is checked in. With FRAMED the chain sits inside a
# framing of policy p, and every Close move of the exploration flushes
# the pending ⌋p of the service's remaining chain. Service `t` fires the
# one event that can violate p, so the lint passes find nothing to say.
#
# Usage: cmake -DOUT=<file.sus> -DTERMS=<count> [-DFRAMED=ON]
#              -P write_long_chain.cmake
math(EXPR REST "${TERMS} - 1")
string(REPEAT "%e; " ${REST} CHAIN)
string(APPEND CHAIN "%e")
if(FRAMED)
  set(CHAIN "p[ ${CHAIN} ]")
endif()
file(WRITE ${OUT}
"policy p() {
  start q0;
  offending q1;
  q0 -> q0 on e;
  q0 -> q1 on f;
  q1 -> q1 on *;
}
service s { ${CHAIN} }
service t { %f }
client c { open 1 { eps } }
")
