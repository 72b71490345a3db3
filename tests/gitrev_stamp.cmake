# Tests tools/gitrev.cmake in a scratch repository:
#   cmake -DSCRIPT=<tools/gitrev.cmake> -DWORK=<dir> -P gitrev_stamp.cmake
# A clean tree stamps "<rev>", an untracked file leaves it clean, a
# tracked edit stamps "<rev>-dirty", and an unchanged stamp leaves the
# generated file untouched.
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}/tree")
set(tree "${WORK}/tree")
set(out "${WORK}/git_revision.cc")

function(git)
  execute_process(COMMAND git -c user.name=t -c user.email=t@t ${ARGN}
                  WORKING_DIRECTORY "${tree}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout OUTPUT_STRIP_TRAILING_WHITESPACE
                  ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "git ${ARGN} failed: ${stderr}")
  endif()
  set(git_out "${stdout}" PARENT_SCOPE)
endfunction()

# Stamps the tree and checks the revision the generated file returns.
function(expect_stamp want)
  execute_process(COMMAND ${CMAKE_COMMAND} -DSOURCE_DIR=${tree}
                          -DOUTPUT=${out} -P ${SCRIPT}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gitrev.cmake exited ${rc}")
  endif()
  file(READ "${out}" text)
  if(NOT text MATCHES "return \"([^\"]*)\";")
    message(FATAL_ERROR "no revision in ${out}:\n${text}")
  endif()
  if(NOT CMAKE_MATCH_1 STREQUAL want)
    message(FATAL_ERROR "stamped '${CMAKE_MATCH_1}', expected '${want}'")
  endif()
endfunction()

git(init -q)
file(WRITE "${tree}/tracked.txt" "one\n")
git(add tracked.txt)
git(commit -q -m first)
git(rev-parse --short HEAD)
set(rev "${git_out}")

expect_stamp("${rev}")

# Restamping an unchanged tree must not rewrite the file: an old
# modification time survives it.
execute_process(COMMAND touch -d @1000000000 "${out}")
file(WRITE "${tree}/untracked.txt" "build output\n")
expect_stamp("${rev}")
file(TIMESTAMP "${out}" mtime "%s" UTC)
if(NOT mtime STREQUAL "1000000000")
  message(FATAL_ERROR "unchanged stamp rewrote ${out} (mtime ${mtime})")
endif()

file(WRITE "${tree}/tracked.txt" "two\n")
expect_stamp("${rev}-dirty")

file(REMOVE_RECURSE "${WORK}")
